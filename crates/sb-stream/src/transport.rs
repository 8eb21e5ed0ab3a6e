//! The transport seam: what a backend must provide for
//! [`StreamHub`](crate::StreamHub) to run a workflow over it.
//!
//! [`StreamWriter`](crate::StreamWriter) and
//! [`StreamReader`](crate::StreamReader) own all protocol bookkeeping
//! (lockstep assertions, step numbering, trace spans) and the reader owns
//! the entire MxN bounding-box assembly — both operate on frozen
//! [`StepContents`] and are completely backend-agnostic. A backend supplies
//! only the blocking data plane behind them:
//!
//! * a [`WriterEndpoint`] that accepts a rank's steps (with backpressure),
//! * a [`ReaderEndpoint`] that produces committed steps (or end-of-stream),
//! * a [`Transport`] that opens endpoints by stream name and carries the
//!   supervision verbs (poison, forced EOS, detach, restart preparation).
//!
//! Two backends exist: [`InProcTransport`] (streams in shared memory, steps
//! moved by `Arc` — the original hub) and the broker client of
//! [`crate::tcp`] (length-prefixed frames to a broker process), which runs
//! over a TCP socket for `tcp://` URLs and over the same-host Unix-domain
//! socket of [`crate::shm`] for `shm://` ones.
//!
//! ## Contract
//!
//! A backend that must connect somewhere does so eagerly at open, and an
//! open it cannot complete is an `Err`. An open, a put or a release that
//! breaks the group protocol — a rank disagreeing with its group's size,
//! options or metadata, a step committed or released twice — is refused
//! with [`StreamError::PeerGone`], by the in-proc stream or by a broker
//! session over the socket. One rule then holds on every backend, so
//! components never special-case one: the handle keeps the failure and
//! returns it, typed, from its next fallible call (`begin_step` after an
//! open, `end_step` after a put). Blocking calls return
//! [`StreamError::Timeout`] after the hub deadline and
//! [`StreamError::PeerGone`] when the peer or the supervisor tore the
//! stream down — never a hang. Only calls out of order (a put outside a
//! step, a step begun twice) panic, in the handles, alike everywhere.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sb_data::{lock, Chunk, Region};

use crate::error::StreamResult;
use crate::metrics::{Counters, StreamMetrics};
pub use crate::stream::{StepContents, VarSlot};
use crate::stream::{Stream, WriterOptions};
use crate::trace::Tracer;

/// One writer rank's connection to a stream: accepts its steps in order.
///
/// The handle above it guarantees calls arrive as
/// `begin_step(s) → put(s)* → end_step(s)` with `s` strictly increasing,
/// terminated by exactly one of `close`, `abandon`, or `disconnect`.
pub trait WriterEndpoint: Send {
    /// Opens `step`. In process this blocks while the writer-side buffer is
    /// full; a remote writer sends nothing here, and the broker waits for
    /// buffer space when the step arrives, inside `end_step`.
    fn begin_step(&mut self, step: u64) -> StreamResult<()>;

    /// Contributes one chunk to the open step.
    fn put(&mut self, step: u64, chunk: Chunk) -> StreamResult<()>;

    /// Commits the open step; in rendezvous mode, blocks until consumed.
    fn end_step(&mut self, step: u64) -> StreamResult<()>;

    /// Cleanly closes this rank's side; the last rank closing yields EOS.
    fn close(&mut self);

    /// Walks away *silently*: the stream is left exactly as it is, so the
    /// workflow supervisor — not the transport — decides whether the
    /// component restarts (resuming after the last complete step) or the
    /// stream is torn down. Used by failing ranks.
    fn abandon(&mut self);

    /// Walks away *noisily*: the rank is gone for good and no supervisor
    /// will resurrect it. Readers blocked on steps this writer group can no
    /// longer commit fail promptly with `PeerGone`.
    fn disconnect(&mut self);
}

/// Most `(variable, region)` pairs a reader hands its endpoint per release,
/// and most a broker accepts per step request. A rank reads a handful of
/// boxes per step; one that reads more than this is served whole steps.
pub const MAX_STEP_BOXES: usize = 64;

/// One reader rank's connection to a stream: produces committed steps.
pub trait ReaderEndpoint: Send {
    /// Blocks until `step` is committed (`Some`) or the stream ended
    /// cleanly (`None`). A backend that was told the rank's boxes (see
    /// [`release_step`](Self::release_step)) may leave out chunks those boxes
    /// do not touch, but never a variable; fetching the step that is already
    /// open again must return it whole.
    fn fetch_step(&mut self, step: u64) -> StreamResult<Option<StepContents>>;

    /// Releases `step`; once every rank of the group has, the writer-side
    /// buffer slot is freed. `boxes` are the `(variable, region)` pairs this
    /// rank read during `step` — its best guess at what it will read next,
    /// so a remote backend can ask for only those bytes of `step + 1`. Empty
    /// for backends that hand steps over by reference, and when the rank
    /// read more than [`MAX_STEP_BOXES`].
    fn release_step(&mut self, step: u64, boxes: &[(String, Region)]) -> StreamResult<()>;

    /// Steps the writer group has committed so far (diagnostics).
    fn committed_steps(&self) -> u64;
}

/// What [`Transport::open_writer`] hands back: the endpoint plus the step
/// the writer group starts at.
pub struct WriterConnection {
    pub(crate) endpoint: Box<dyn WriterEndpoint>,
    pub(crate) start_step: u64,
    /// The stream's counter block (the TCP broker charges received frame
    /// bytes here).
    pub(crate) counters: Arc<Counters>,
}

/// What [`Transport::open_reader`] hands back: the endpoint, the first step
/// this rank will observe, and the counter block the reader's MxN assembly
/// path charges its copies/reads to.
pub struct ReaderConnection {
    pub(crate) endpoint: Box<dyn ReaderEndpoint>,
    pub(crate) first_step: u64,
    pub(crate) counters: Arc<Counters>,
    /// Whether the reader handle should remember the boxes each step's
    /// `get`s served and pass them to [`ReaderEndpoint::release_step`]: set
    /// by backends whose `fetch_step` moves bytes and can move fewer.
    pub(crate) learns_boxes: bool,
}

/// The endpoint behind a handle whose open was refused: the handle answers
/// every fallible call with the refusal before it could reach here, and
/// has nothing to close.
pub(crate) struct Refused;

impl WriterEndpoint for Refused {
    fn begin_step(&mut self, _step: u64) -> StreamResult<()> {
        Ok(())
    }

    fn put(&mut self, _step: u64, _chunk: Chunk) -> StreamResult<()> {
        Ok(())
    }

    fn end_step(&mut self, _step: u64) -> StreamResult<()> {
        Ok(())
    }

    fn close(&mut self) {}

    fn abandon(&mut self) {}

    fn disconnect(&mut self) {}
}

impl ReaderEndpoint for Refused {
    fn fetch_step(&mut self, _step: u64) -> StreamResult<Option<StepContents>> {
        Ok(None)
    }

    fn release_step(&mut self, _step: u64, _boxes: &[(String, Region)]) -> StreamResult<()> {
        Ok(())
    }

    fn committed_steps(&self) -> u64 {
        0
    }
}

/// A stream transport backend: name-based endpoint rendezvous plus the
/// supervision verbs the workflow runtime drives.
pub trait Transport: Send + Sync {
    /// Short backend name for diagnostics ("inproc", "tcp").
    fn backend(&self) -> &'static str;

    /// Opens the writer side of `name` for one rank of a writer group.
    fn open_writer(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        options: WriterOptions,
    ) -> StreamResult<WriterConnection>;

    /// Opens the reader side of `name` for one rank of reader group `group`.
    fn open_reader(
        &self,
        name: &str,
        group: &str,
        rank: usize,
        nranks: usize,
    ) -> StreamResult<ReaderConnection>;

    /// Names of all streams opened so far, sorted.
    fn stream_names(&self) -> Vec<String>;

    /// A snapshot of one stream's transfer counters.
    fn metrics(&self, name: &str) -> Option<StreamMetrics>;

    /// Snapshots of every stream, sorted by name.
    fn all_metrics(&self) -> Vec<StreamMetrics>;

    /// Poisons every stream: blocked and future operations return
    /// `PeerGone` with `reason`.
    fn poison_all(&self, reason: &str);

    /// Forces a clean EOS on `name` (creating it if necessary).
    fn force_end_of_stream(&self, name: &str);

    /// Detaches reader group `group` of `name` so it stops holding steps.
    fn detach_reader_group(&self, name: &str, group: &str);

    /// Prepares input subscriptions and output streams for a component
    /// restart.
    fn prepare_restart(&self, inputs: &[(String, String)], outputs: &[String]);

    /// Propagates a deadlock-timeout override into the backend.
    fn set_wait_timeout(&self, timeout: Duration);

    /// A point-in-time copy of `name`'s currently buffered *committed*
    /// steps, as `(step, contents)` pairs in step order, without disturbing
    /// the stream protocol. `None` means the backend does not support
    /// snapshots (the TCP client has no request/response control path —
    /// snapshot on the broker side instead).
    fn snapshot_stream(&self, name: &str) -> Option<Vec<(u64, StepContents)>> {
        let _ = name;
        None
    }
}

// ---- the in-proc backend -------------------------------------------------

/// The original shared-memory backend: streams live in a map, steps move by
/// `Arc` clone, blocking is a condvar wait.
pub(crate) struct InProcTransport {
    streams: Mutex<HashMap<String, Arc<Stream>>>,
    /// Micros; shared with the owning hub and every stream so a timeout
    /// override reaches streams that already exist.
    wait_timeout_micros: Arc<AtomicU64>,
    tracer: Arc<Tracer>,
}

impl InProcTransport {
    pub(crate) fn new(wait_timeout_micros: Arc<AtomicU64>, tracer: Arc<Tracer>) -> InProcTransport {
        InProcTransport {
            streams: Mutex::new(HashMap::new()),
            wait_timeout_micros,
            tracer,
        }
    }

    fn stream(&self, name: &str) -> Arc<Stream> {
        let mut streams = lock(&self.streams);
        Arc::clone(streams.entry(name.to_string()).or_insert_with(|| {
            Arc::new(Stream::new(
                name.to_string(),
                Arc::clone(&self.wait_timeout_micros),
                Arc::clone(&self.tracer),
            ))
        }))
    }
}

struct InProcWriter {
    stream: Arc<Stream>,
    rank: usize,
    nranks: usize,
}

impl WriterEndpoint for InProcWriter {
    fn begin_step(&mut self, step: u64) -> StreamResult<()> {
        self.stream.writer_begin_step(step)
    }

    fn put(&mut self, step: u64, chunk: Chunk) -> StreamResult<()> {
        self.stream.writer_put(step, chunk)
    }

    fn end_step(&mut self, step: u64) -> StreamResult<()> {
        self.stream.writer_end_step(step, self.rank, self.nranks)
    }

    fn close(&mut self) {
        self.stream.writer_close(self.rank, self.nranks);
    }

    fn abandon(&mut self) {
        // Deliberately nothing: a failing rank leaves no trace so the
        // supervisor's restart/degrade decision sees the stream unchanged.
    }

    fn disconnect(&mut self) {
        self.stream.writer_disconnect();
    }
}

struct InProcReader {
    stream: Arc<Stream>,
    group: String,
    nranks: usize,
}

impl ReaderEndpoint for InProcReader {
    fn fetch_step(&mut self, step: u64) -> StreamResult<Option<StepContents>> {
        self.stream.reader_begin_step(step)
    }

    fn release_step(&mut self, step: u64, _boxes: &[(String, Region)]) -> StreamResult<()> {
        self.stream.reader_end_step(&self.group, step, self.nranks)
    }

    fn committed_steps(&self) -> u64 {
        self.stream.counters.steps_committed.load(Ordering::Relaxed)
    }
}

impl Transport for InProcTransport {
    fn backend(&self) -> &'static str {
        "inproc"
    }

    fn open_writer(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        options: WriterOptions,
    ) -> StreamResult<WriterConnection> {
        let stream = self.stream(name);
        let start_step = stream.register_writer(nranks, options)?;
        Ok(WriterConnection {
            start_step,
            counters: Arc::clone(&stream.counters),
            endpoint: Box::new(InProcWriter {
                stream,
                rank,
                nranks,
            }),
        })
    }

    fn open_reader(
        &self,
        name: &str,
        group: &str,
        rank: usize,
        nranks: usize,
    ) -> StreamResult<ReaderConnection> {
        let _ = rank;
        let stream = self.stream(name);
        let first_step = stream.register_reader(group, nranks)?;
        Ok(ReaderConnection {
            first_step,
            counters: Arc::clone(&stream.counters),
            learns_boxes: false,
            endpoint: Box::new(InProcReader {
                stream,
                group: group.to_string(),
                nranks,
            }),
        })
    }

    fn stream_names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.streams).keys().cloned().collect();
        names.sort();
        names
    }

    fn metrics(&self, name: &str) -> Option<StreamMetrics> {
        lock(&self.streams)
            .get(name)
            .map(|s| s.counters.snapshot(name))
    }

    fn all_metrics(&self) -> Vec<StreamMetrics> {
        let streams = lock(&self.streams);
        let mut out: Vec<StreamMetrics> = streams
            .iter()
            .map(|(name, s)| s.counters.snapshot(name))
            .collect();
        out.sort_by(|a, b| a.stream.cmp(&b.stream));
        out
    }

    fn poison_all(&self, reason: &str) {
        for stream in lock(&self.streams).values() {
            stream.poison(reason);
        }
    }

    fn force_end_of_stream(&self, name: &str) {
        self.stream(name).force_end_of_stream();
    }

    fn detach_reader_group(&self, name: &str, group: &str) {
        self.stream(name).detach_reader_group(group);
    }

    fn prepare_restart(&self, inputs: &[(String, String)], outputs: &[String]) {
        for (stream, group) in inputs {
            self.stream(stream).reset_reader_group(group);
        }
        for stream in outputs {
            self.stream(stream).reattach_writer();
        }
    }

    fn set_wait_timeout(&self, _timeout: Duration) {
        // The hub and every stream share one AtomicU64; the hub already
        // stored the new value before delegating here.
    }

    fn snapshot_stream(&self, name: &str) -> Option<Vec<(u64, StepContents)>> {
        lock(&self.streams).get(name).map(|s| s.snapshot())
    }
}
