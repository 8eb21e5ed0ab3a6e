//! # sb-stream — stream-based publish/subscribe transport
//!
//! FlexPath, the transport under the paper's SmartBlock components, provides
//! four behaviours the components lean on (§IV):
//!
//! 1. **Name-based connection** — a writer group and a reader group meet on
//!    a stream *name*; launch scripts wire workflows purely by matching
//!    output names to input names.
//! 2. **Launch-order independence** — readers block until the corresponding
//!    writers exist and have data; writers buffer until readers attach.
//! 3. **MxN redistribution** — M writer ranks and N reader ranks never need
//!    to agree on counts: each reader declares a bounding box of the global
//!    array and receives it assembled from every intersecting writer chunk.
//! 4. **Compute/I-O overlap** — a bounded writer-side queue lets a component
//!    proceed to its next timestep while downstream is still consuming the
//!    previous one; a rendezvous mode exists for the overlap ablation.
//!
//! This crate implements all four in process: ranks are threads (see
//! `sb-comm`), streams live in a shared [`StreamHub`], and payloads move as
//! [`sb_data::Chunk`]s. Because memory is shared, the "data exchange thread"
//! of FlexPath degenerates to a reader-side gather
//! ([`sb_data::region::copy_region`]) out of the committed step slots — the
//! queueing, blocking and backpressure semantics are preserved exactly.
//!
//! ## Backends
//!
//! The same endpoints run over three backends behind one crate-private
//! `Transport` trait, picked by how the hub is made: [`StreamHub::new`] keeps streams in
//! process; [`StreamHub::connect`] reaches a broker process fronting such a
//! hub, over TCP (`tcp://host:port`, [`TcpBroker`]) or over a Unix-domain
//! socket in a rendezvous directory on the same host (`shm://DIR`,
//! [`ShmBroker`]). Both remote fabrics carry one frame protocol ([`tcp`]),
//! so what arrives never depends on how it travelled.
//!
//! ## Step lifecycle
//!
//! Writers (every rank of the writer group, in lockstep):
//! `begin_step` → [`StreamWriter::put`] chunks → `end_step` → … → `close`.
//!
//! Readers (every rank of the reader group, in lockstep):
//! `begin_step` → inspect [`StreamReader::variables`]/[`StreamReader::meta`]
//! → [`StreamReader::get`] bounding boxes → `end_step` → … until
//! [`StepStatus::EndOfStream`].
//!
//! ## Failure semantics
//!
//! Blocking operations never panic on a stalled peer: they return a typed
//! [`StreamError`] — `Timeout` after the hub deadline, `PeerGone` when the
//! workflow supervisor poisons the streams during teardown. The [`faults`]
//! module provides a seeded, deterministic fault-injection plan
//! ([`faults::FaultPlan`]) that the chaos tests install on the hub.

mod error;
pub mod faults;
mod hub;
mod metrics;
mod reader;
pub mod shm;
mod stream;
pub mod tcp;
pub mod trace;
mod transport;
mod writer;

pub use error::{StreamError, StreamResult};
pub use faults::{FaultKind, FaultOp, FaultPlan, InjectedFault};
pub use hub::{StreamHub, DEFAULT_WAIT_TIMEOUT};
pub use metrics::StreamMetrics;
pub use reader::{StepStatus, StreamReader};
pub use sb_data::signal::{SignalBoard, SignalHook};
pub use sb_data::wire::Compression;
pub use shm::ShmBroker;
pub use stream::WriterOptions;
pub use tcp::{TcpBroker, TcpOptions, WireProtocol};
pub use trace::{
    thread_label, EventKind, PhaseHistogram, Timeline, TraceConfig, TraceEvent, TraceSite, Tracer,
};
pub use transport::{StepContents, VarSlot};
pub use writer::StreamWriter;
