//! Per-stream transfer counters.
//!
//! The paper's evaluation reports per-component and end-to-end throughput in
//! KB/s; these counters are what the bench harnesses read to compute the
//! same numbers.
//!
//! # Honest wire accounting
//!
//! A step over the TCP backend crosses two socket *hops*: writer → broker
//! (`W_STEP` and its replies) and broker → reader (`REPLY_STEP` and the
//! fetch/release verbs around it). The reader hop carries, per rank, the
//! chunks and row slabs the rank's last boxes touch — about one payload per
//! reader *group* however many ranks it has — plus a whole step for each
//! connection's first request and for each wrong guess (see
//! [`crate::tcp`]). Each frame byte is charged exactly once, to the hop it
//! crossed, by the broker sessions: they see every frame of every client on
//! both hops, so they are the only meter, and a client's snapshot taken
//! after the broker is gone reports every hop counter as 0. (Earlier
//! revisions charged both ends of every frame into one shared counter,
//! which reported a 1×1 pipeline as "4× amplification" when the true
//! per-hop cost was ~1×.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Lock-free counters updated by writer and reader ranks of one stream.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub bytes_written: AtomicU64,
    pub bytes_read: AtomicU64,
    pub steps_committed: AtomicU64,
    pub steps_consumed: AtomicU64,
    pub writer_wait_ns: AtomicU64,
    pub reader_wait_ns: AtomicU64,
    pub bytes_copied: AtomicU64,
    pub copies_elided: AtomicU64,
    pub zero_fills_elided: AtomicU64,
    pub wire_writer_bytes: AtomicU64,
    pub wire_reader_bytes: AtomicU64,
    pub wire_shm_bytes: AtomicU64,
    pub wire_uncompressed_bytes: AtomicU64,
    pub wire_compressed_bytes: AtomicU64,
}

impl Counters {
    pub(crate) fn add_written(&self, bytes: usize) {
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_read(&self, bytes: usize) {
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_writer_wait(&self, d: Duration) {
        self.writer_wait_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_reader_wait(&self, d: Duration) {
        self.reader_wait_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_copied(&self, bytes: usize) {
        self.bytes_copied.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_copy_elided(&self) {
        self.copies_elided.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_zero_fill_elided(&self) {
        self.zero_fills_elided.fetch_add(1, Ordering::Relaxed);
    }

    /// Charges frame bytes to the writer → broker hop.
    pub(crate) fn add_wire_writer(&self, bytes: usize) {
        self.wire_writer_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Charges frame bytes to the broker → reader hop.
    pub(crate) fn add_wire_reader(&self, bytes: usize) {
        self.wire_reader_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Attributes frame bytes to the same-host `shm://` fabric. Charged by shm
    /// broker sessions *in addition to* the per-hop counters above (same
    /// single-authority rule: the broker session is the only side that
    /// charges), so `wire_shm_bytes ≤ bytes_on_wire` and the hop totals stay
    /// fabric-agnostic.
    pub(crate) fn add_wire_shm(&self, bytes: usize) {
        self.wire_shm_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one payload passing through the codec: its size before
    /// compression and the bytes that actually went on the wire. Charged
    /// only where a codec actually ran — the writer client for its own
    /// encode, the broker only for chunks it could not relay as received —
    /// so client and broker contributions are disjoint events and merge
    /// cleanly, and a pass-through stream counts each payload byte once.
    pub(crate) fn add_compression(&self, raw: usize, wire: usize) {
        self.wire_uncompressed_bytes
            .fetch_add(raw as u64, Ordering::Relaxed);
        self.wire_compressed_bytes
            .fetch_add(wire as u64, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, name: &str) -> StreamMetrics {
        let wire_writer = self.wire_writer_bytes.load(Ordering::Relaxed);
        let wire_reader = self.wire_reader_bytes.load(Ordering::Relaxed);
        StreamMetrics {
            stream: name.to_string(),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            steps_committed: self.steps_committed.load(Ordering::Relaxed),
            steps_consumed: self.steps_consumed.load(Ordering::Relaxed),
            writer_wait: Duration::from_nanos(self.writer_wait_ns.load(Ordering::Relaxed)),
            reader_wait: Duration::from_nanos(self.reader_wait_ns.load(Ordering::Relaxed)),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            copies_elided: self.copies_elided.load(Ordering::Relaxed),
            zero_fills_elided: self.zero_fills_elided.load(Ordering::Relaxed),
            wire_writer_bytes: wire_writer,
            wire_reader_bytes: wire_reader,
            wire_shm_bytes: self.wire_shm_bytes.load(Ordering::Relaxed),
            wire_uncompressed_bytes: self.wire_uncompressed_bytes.load(Ordering::Relaxed),
            wire_compressed_bytes: self.wire_compressed_bytes.load(Ordering::Relaxed),
            bytes_on_wire: wire_writer + wire_reader,
        }
    }

    /// Field-wise merge of `other` into a snapshot taken later — how a TCP
    /// client hub folds its local read-side counters into the broker's
    /// authoritative snapshot.
    ///
    /// Wire-hop counters are not merged: only the broker meters them.
    /// Compression counters are — they are charged only where a payload is
    /// encoded (the client for its writes, the broker for what its relay had
    /// to encode itself), so the contributions are disjoint.
    pub(crate) fn merge_into(&self, m: &mut StreamMetrics) {
        m.bytes_written += self.bytes_written.load(Ordering::Relaxed);
        m.bytes_read += self.bytes_read.load(Ordering::Relaxed);
        m.writer_wait += Duration::from_nanos(self.writer_wait_ns.load(Ordering::Relaxed));
        m.reader_wait += Duration::from_nanos(self.reader_wait_ns.load(Ordering::Relaxed));
        m.bytes_copied += self.bytes_copied.load(Ordering::Relaxed);
        m.copies_elided += self.copies_elided.load(Ordering::Relaxed);
        m.zero_fills_elided += self.zero_fills_elided.load(Ordering::Relaxed);
        m.wire_uncompressed_bytes += self.wire_uncompressed_bytes.load(Ordering::Relaxed);
        m.wire_compressed_bytes += self.wire_compressed_bytes.load(Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of one stream's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamMetrics {
    /// Stream name.
    pub stream: String,
    /// Payload bytes committed by writer ranks.
    pub bytes_written: u64,
    /// Payload bytes assembled into reader bounding boxes.
    pub bytes_read: u64,
    /// Steps fully committed by the writer group.
    pub steps_committed: u64,
    /// Steps fully released by the reader group.
    pub steps_consumed: u64,
    /// Total time writer ranks spent blocked (backpressure/rendezvous).
    pub writer_wait: Duration,
    /// Total time reader ranks spent blocked waiting for data.
    pub reader_wait: Duration,
    /// Payload bytes physically copied while assembling reader boxes.
    /// Zero on the pure fast path; `bytes_read` still counts the bytes
    /// *served*, copied or shared.
    pub bytes_copied: u64,
    /// Reader gets answered by sharing a chunk's allocation (`Arc` clone)
    /// instead of copying — the exact-cover fast path.
    pub copies_elided: u64,
    /// Reader gets assembled by appending tiling slabs, skipping the
    /// zero-fill of the destination buffer.
    pub zero_fills_elided: u64,
    /// Frame bytes that crossed the writer → broker socket hop (headers
    /// plus payload, both directions of that connection), each counted
    /// once. Zero on the in-proc backend.
    pub wire_writer_bytes: u64,
    /// Frame bytes that crossed the broker → reader socket hop, each
    /// counted once: the parts of each step its reader ranks' boxes touch,
    /// not the step per rank. Zero on the in-proc backend.
    pub wire_reader_bytes: u64,
    /// Frame bytes that moved over the same-host `shm://` fabric. A
    /// fabric *attribution* of the hop totals, not a third hop: every byte
    /// here is also in `wire_writer_bytes` or `wire_reader_bytes`. Zero on
    /// the tcp and in-proc backends.
    pub wire_shm_bytes: u64,
    /// Payload bytes entering the wire codec before compression, counted
    /// at each encode: once per stream when the broker relays the writers'
    /// frames as received, once more per codec it has to encode for
    /// itself. Equal to `wire_compressed_bytes` when compression is off or
    /// never won.
    pub wire_uncompressed_bytes: u64,
    /// Payload bytes leaving the wire codec — after compression where it
    /// was applied and kept.
    pub wire_compressed_bytes: u64,
    /// Total frame bytes across both hops: `wire_writer_bytes +
    /// wire_reader_bytes`. Zero on the in-proc backend, where steps move by
    /// `Arc` and nothing is serialized.
    pub bytes_on_wire: u64,
}
