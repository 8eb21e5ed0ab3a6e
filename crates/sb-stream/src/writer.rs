//! The per-rank writer handle.

use std::sync::Arc;

use sb_data::{Chunk, Variable};

use crate::error::{StreamError, StreamResult};
use crate::trace::{EventKind, TraceSite, Tracer};
use crate::transport::{Refused, WriterConnection, WriterEndpoint};

/// One writer rank's handle onto a stream.
///
/// All ranks of the writer group advance through steps in lockstep:
/// `begin_step` → one or more [`StreamWriter::put`] calls → `end_step`.
/// Dropping the handle closes this rank's side of the stream; when every
/// rank has closed, readers observe end-of-stream.
///
/// A handle dropped mid-step, during a panic, or after
/// [`StreamWriter::abandon`] does *not* close the stream: a failing rank
/// must never signal a clean EOS — the workflow supervisor decides whether
/// to restart the component or tear the stream down.
///
/// The handle is transport-agnostic: the same protocol drives the in-proc
/// backend (steps shared by `Arc`) and the TCP backend (steps framed onto a
/// socket, with `put`s batched until `end_step`). So is misuse: what the
/// hub refuses — this rank's open, or a chunk whose metadata disagrees
/// with another rank's — ends the handle, as any other
/// [`StreamError::PeerGone`] does, and every later `begin_step` and
/// `end_step` returns it.
pub struct StreamWriter {
    endpoint: Box<dyn WriterEndpoint>,
    tracer: Arc<Tracer>,
    trace_id: u32,
    rank: usize,
    nranks: usize,
    next_step: u64,
    in_step: bool,
    closed: bool,
    /// What ended the handle — its failed open, a refused put, or any
    /// other `PeerGone` — for every later `begin_step` and `end_step`.
    refused: Option<StreamError>,
}

impl StreamWriter {
    pub(crate) fn new(
        conn: StreamResult<WriterConnection>,
        tracer: &Arc<Tracer>,
        name: &str,
        rank: usize,
        nranks: usize,
    ) -> StreamWriter {
        let (endpoint, next_step, refused) = match conn {
            Ok(conn) => (conn.endpoint, conn.start_step, None),
            Err(refused) => (
                Box::new(Refused) as Box<dyn WriterEndpoint>,
                0,
                Some(refused),
            ),
        };
        StreamWriter {
            endpoint,
            tracer: Arc::clone(tracer),
            trace_id: tracer.intern(name),
            rank,
            nranks,
            next_step,
            in_step: false,
            closed: false,
            refused,
        }
    }

    /// This rank's id within the writer group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Size of the writer group.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The step the handle is currently in (or will enter next).
    pub fn current_step(&self) -> u64 {
        self.next_step
    }

    /// Runs one endpoint call that may block inside a `writer_blocked` span.
    fn blocking(
        &mut self,
        call: fn(&mut dyn WriterEndpoint, u64) -> StreamResult<()>,
    ) -> StreamResult<()> {
        if let Some(refused) = &self.refused {
            return Err(refused.clone());
        }
        let start_ns = if self.tracer.enabled() {
            self.tracer.now_ns()
        } else {
            0
        };
        if let Err(err) = call(&mut *self.endpoint, self.next_step) {
            // A remote broker refuses a put in the `end_step` that sent it:
            // kept, it ends the handle as an in-proc refusal does.
            if matches!(err, StreamError::PeerGone { .. }) {
                self.refused = Some(err.clone());
            }
            return Err(err);
        }
        self.tracer.span(
            EventKind::WriterBlocked,
            TraceSite::stream(self.trace_id, self.rank, self.next_step),
            start_ns,
        );
        Ok(())
    }

    /// Opens the next step. In process this blocks while the writer-side
    /// buffer is full; a remote writer returns at once, and the wait for
    /// buffer space happens broker-side inside [`end_step`](Self::end_step).
    /// A refused open is returned here.
    pub fn begin_step(&mut self) -> StreamResult<()> {
        assert!(!self.closed, "begin_step on a closed writer");
        assert!(!self.in_step, "begin_step called twice without end_step");
        self.blocking(|endpoint, step| endpoint.begin_step(step))?;
        self.in_step = true;
        Ok(())
    }

    /// Contributes one chunk of a variable to the open step. A chunk the hub
    /// refuses — its metadata disagrees with what another rank put for the
    /// same variable — is returned by [`end_step`](Self::end_step), which
    /// then commits nothing; a remote broker refuses it there.
    pub fn put(&mut self, chunk: Chunk) {
        assert!(self.in_step, "put outside begin_step/end_step");
        if self.refused.is_none() {
            self.refused = self.endpoint.put(self.next_step, chunk).err();
        }
    }

    /// Convenience: contributes an entire variable as this rank's chunk
    /// (the single-writer or replicated-metadata case).
    pub fn put_whole(&mut self, var: Variable) {
        self.put(Chunk::whole(var));
    }

    /// Commits the open step. The last committing rank publishes it to
    /// readers; in rendezvous mode this blocks until it is consumed. A remote
    /// writer encodes and sends the whole step here, each payload streamed
    /// a block at a time, and blocks for the broker's one reply, which also
    /// covers the wait for buffer space: a full queue surfaces here as
    /// `Timeout { waiting_for: "buffer space" }`.
    pub fn end_step(&mut self) -> StreamResult<()> {
        assert!(self.in_step, "end_step without begin_step");
        self.blocking(|endpoint, step| endpoint.end_step(step))?;
        self.in_step = false;
        self.next_step += 1;
        Ok(())
    }

    /// Closes this rank's side of the stream. Idempotent; also runs on a
    /// clean drop.
    pub fn close(&mut self) {
        assert!(!self.in_step, "close inside an open step");
        if !self.closed {
            self.closed = true;
            self.endpoint.close();
        }
    }

    /// Walks away from the stream *without* closing it: readers see neither
    /// further data nor EOS from this rank. Called by failing components so
    /// downstream never mistakes a crash for a clean end of stream; the
    /// workflow supervisor then restarts the component or tears the stream
    /// down.
    pub fn abandon(&mut self) {
        if !self.closed {
            self.closed = true;
            self.in_step = false;
            self.endpoint.abandon();
        }
    }

    /// Declares this rank gone *for good* — no supervisor will restart it.
    /// Readers blocked on steps the writer group can no longer commit fail
    /// promptly with [`crate::StreamError::PeerGone`] instead of waiting
    /// out the hub timeout. (A dropped TCP connection reports the same.)
    pub fn disconnect(&mut self) {
        if !self.closed {
            self.closed = true;
            self.in_step = false;
            self.endpoint.disconnect();
        }
    }
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        // Only a clean drop (not mid-step, not unwinding) counts as a
        // close; a failing rank abandons instead.
        if !self.in_step && !std::thread::panicking() {
            self.endpoint.close();
        } else {
            self.endpoint.abandon();
        }
    }
}
