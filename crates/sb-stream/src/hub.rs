//! The stream registry where writer and reader groups rendezvous by name.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sb_data::lock;
use sb_data::signal::SignalBoard;

use crate::faults::{FaultPlan, InjectedFault};
use crate::metrics::StreamMetrics;
use crate::reader::StreamReader;
use crate::stream::{StepContents, WriterOptions};
use crate::tcp::{TcpOptions, TcpTransport};
use crate::trace::Tracer;
use crate::transport::{InProcTransport, Transport};
use crate::writer::StreamWriter;

/// Default time a blocked stream operation may wait before returning
/// [`crate::StreamError::Timeout`] with a deadlock diagnostic. Generous
/// enough for heavily oversubscribed CI machines, short enough that a
/// mis-wired workflow fails loudly.
pub const DEFAULT_WAIT_TIMEOUT: Duration = Duration::from_secs(120);

/// The per-workflow registry of named streams.
///
/// Components never hold references to each other — they only share a hub
/// and agree on stream names, exactly as FlexPath endpoints agree on contact
/// strings. Opening a writer or reader on a name that does not exist yet
/// creates the stream; the other side may attach at any later time
/// (launch-order independence).
///
/// A hub fronts a `Transport` backend. [`StreamHub::new`] serves streams
/// in process (shared memory, `Arc`-moved steps); [`StreamHub::connect`]
/// serves the same API over TCP frames to a
/// [`TcpBroker`](crate::tcp::TcpBroker) in another process — components
/// cannot tell the difference.
///
/// ```
/// use sb_stream::{StreamHub, StepStatus, WriterOptions};
/// use sb_data::{Buffer, Shape, Variable};
///
/// let hub = StreamHub::new();
/// let mut w = hub.open_writer("demo.fp", 0, 1, WriterOptions::default());
/// w.begin_step().unwrap();
/// w.put_whole(Variable::new("x", Shape::linear("n", 3), Buffer::F64(vec![1.0, 2.0, 3.0])).unwrap());
/// w.end_step().unwrap();
/// w.close();
///
/// let mut r = hub.open_reader("demo.fp", 0, 1);
/// assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
/// assert_eq!(r.get_whole("x").unwrap().data.to_f64_vec(), vec![1.0, 2.0, 3.0]);
/// r.end_step();
/// assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);
/// ```
pub struct StreamHub {
    transport: Arc<dyn Transport>,
    /// Micros; shared with the transport (and, in proc, every stream) so
    /// later overrides apply to streams that already exist.
    wait_timeout_micros: Arc<AtomicU64>,
    /// The installed fault-injection plan, if any (chaos testing). Always
    /// process-local: each OS process consults its own plan.
    faults: Mutex<Option<Arc<FaultPlan>>>,
    /// The hub's tracer; disabled (and costing one relaxed atomic load per
    /// instrumentation site) until the workflow runtime arms it.
    tracer: Arc<Tracer>,
    /// The hub's scalar signal board; disarmed (one relaxed atomic load per
    /// publication) until the workflow runtime arms a trigger hook on it.
    signals: Arc<SignalBoard>,
    /// Each stream's declared writer policy: its reader groups, as
    /// [`StreamHub::set_reader_groups`] declared them, and its queue depth
    /// and rendezvous, as [`StreamHub::set_writer_options`] declared them.
    /// A stream not listed has [`WriterOptions::default`].
    declared: Mutex<HashMap<String, WriterOptions>>,
}

impl StreamHub {
    /// Creates an in-proc hub with the default deadlock timeout.
    pub fn new() -> Arc<StreamHub> {
        Self::with_timeout(DEFAULT_WAIT_TIMEOUT)
    }

    /// Creates an in-proc hub whose blocking operations fail after
    /// `wait_timeout`.
    pub fn with_timeout(wait_timeout: Duration) -> Arc<StreamHub> {
        let wait = Arc::new(AtomicU64::new(wait_timeout.as_micros() as u64));
        let tracer = Arc::new(Tracer::new());
        let transport = Arc::new(InProcTransport::new(Arc::clone(&wait), Arc::clone(&tracer)));
        Self::assemble(transport, wait, tracer)
    }

    /// Creates a hub over a remote broker at `url` — `tcp://host:port` for
    /// the socket backend, `shm://DIR` for the same-host Unix-socket
    /// backend — with default [`TcpOptions`] and the default deadlock
    /// timeout.
    ///
    /// The URL is validated and resolved here; actual connections are
    /// dialed when endpoints open, so the broker may come up later (within
    /// the connect timeout) — launch-order independence across processes.
    pub fn connect(url: &str) -> std::io::Result<Arc<StreamHub>> {
        Self::connect_with(url, TcpOptions::default())
    }

    /// [`StreamHub::connect`] with explicit connect/read timeout options;
    /// the URL scheme picks the socket (`tcp://` or same-host `shm://`).
    pub fn connect_with(url: &str, options: TcpOptions) -> std::io::Result<Arc<StreamHub>> {
        let wait = Arc::new(AtomicU64::new(DEFAULT_WAIT_TIMEOUT.as_micros() as u64));
        let tracer = Arc::new(Tracer::new());
        let connect = if url.starts_with("shm://") {
            crate::shm::connect
        } else {
            TcpTransport::connect
        };
        let transport = Arc::new(connect(
            url,
            options,
            Arc::clone(&wait),
            Arc::clone(&tracer),
        )?);
        Ok(Self::assemble(transport, wait, tracer))
    }

    fn assemble(
        transport: Arc<dyn Transport>,
        wait_timeout_micros: Arc<AtomicU64>,
        tracer: Arc<Tracer>,
    ) -> Arc<StreamHub> {
        Arc::new(StreamHub {
            transport,
            wait_timeout_micros,
            faults: Mutex::new(None),
            tracer,
            signals: Arc::new(SignalBoard::new()),
            declared: Mutex::new(HashMap::new()),
        })
    }

    /// Short name of the transport backend behind this hub.
    pub fn backend(&self) -> &'static str {
        self.transport.backend()
    }

    /// The transport behind this hub (the TCP broker serves a hub's
    /// endpoints directly from here).
    pub(crate) fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// This hub's tracer. Shared with every stream, so arming it makes
    /// streams that already exist start recording too.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// This hub's scalar signal board. Components publish per-step scalars
    /// here (histogram stats, wait/compute ratios); the workflow runtime
    /// arms a hook on it when reactive triggers are declared. Publications
    /// cost one relaxed atomic load while nothing is armed.
    pub fn signals(&self) -> &Arc<SignalBoard> {
        &self.signals
    }

    /// A point-in-time copy of `name`'s currently buffered committed steps
    /// (`(step, contents)` pairs, step order), without disturbing readers
    /// or writers. Returns `None` when the stream does not exist on this
    /// hub or the backend cannot snapshot (the TCP client side has no
    /// request/response control path — snapshot on the broker's hub).
    pub fn snapshot_stream(&self, name: &str) -> Option<Vec<(u64, StepContents)>> {
        self.transport.snapshot_stream(name)
    }

    /// The current deadlock timeout for blocking stream operations.
    pub fn wait_timeout(&self) -> Duration {
        Duration::from_micros(self.wait_timeout_micros.load(Ordering::Relaxed))
    }

    /// Overrides the deadlock timeout; applies immediately to every stream,
    /// including ones opened before the call. On a TCP hub the override is
    /// also forwarded to the broker, where the blocking actually happens.
    pub fn set_wait_timeout(&self, wait_timeout: Duration) {
        self.wait_timeout_micros
            .store(wait_timeout.as_micros() as u64, Ordering::Relaxed);
        self.transport.set_wait_timeout(wait_timeout);
    }

    /// Declares that `groups` reader groups subscribe to `name`, so its
    /// writer keeps every step until each of them has it (see
    /// [`StreamHub::open_reader_grouped`]). Applies to writers opened
    /// afterwards; a stream never declared has one group.
    pub fn set_reader_groups(&self, name: &str, groups: usize) {
        assert!(groups >= 1, "a stream needs at least one reader group");
        lock(&self.declared)
            .entry(name.to_string())
            .or_default()
            .expected_reader_groups = groups;
    }

    /// Declares the queue depth and rendezvous mode of `name`'s writer,
    /// which [`StreamHub::writer_options`] hands to whoever opens it (the
    /// step loop does). Applies to writers opened afterwards; a stream
    /// never declared has the default policy.
    pub fn set_writer_options(&self, name: &str, mut options: WriterOptions) {
        let mut declared = lock(&self.declared);
        let entry = declared.entry(name.to_string()).or_default();
        options.expected_reader_groups = entry.expected_reader_groups;
        *entry = options;
    }

    /// The writer policy declared for `name`.
    pub fn writer_options(&self, name: &str) -> WriterOptions {
        lock(&self.declared).get(name).copied().unwrap_or_default()
    }

    /// Opens the writer side of `name` for rank `rank` of a `nranks`-rank
    /// writer group with `options`' queue depth and rendezvous mode,
    /// retaining steps for the stream's declared reader groups. Every rank
    /// of the group must call this with the same `nranks` and `options`.
    /// The hub refuses a rank that disagrees, and on every backend the
    /// handle returns the refusal as [`crate::StreamError::PeerGone`] from
    /// its first [`begin_step`](StreamWriter::begin_step), as it returns
    /// the failure to reach a remote broker.
    pub fn open_writer(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        mut options: WriterOptions,
    ) -> StreamWriter {
        assert!(rank < nranks, "writer rank out of range");
        options.expected_reader_groups = self.writer_options(name).expected_reader_groups;
        let conn = self.transport.open_writer(name, rank, nranks, options);
        StreamWriter::new(conn, &self.tracer, name, rank, nranks)
    }

    /// Opens the reader side of `name` for rank `rank` of a `nranks`-rank
    /// reader group (the anonymous `"default"` group).
    pub fn open_reader(&self, name: &str, rank: usize, nranks: usize) -> StreamReader {
        self.open_reader_grouped(name, "default", rank, nranks)
    }

    /// Opens the reader side of `name` for a *named* reader group.
    ///
    /// Several groups may subscribe to one stream independently — the ADIOS
    /// "write groups" capability the paper's future work wants for DAG
    /// workflows. A step is released (and writer buffer space freed) only
    /// once the stream's declared number of groups
    /// ([`StreamHub::set_reader_groups`]) has subscribed and every
    /// subscribed group has consumed it, so a group that attaches late
    /// still sees every step. Ranks of one group must agree on `nranks`:
    /// the hub refuses a rank that disagrees, and on every backend the
    /// handle returns the refusal as [`crate::StreamError::PeerGone`] from
    /// its first [`begin_step`](StreamReader::begin_step).
    ///
    /// A workflow derives both facts from its wiring: each component reads
    /// under its workflow label (a later read of a stream it already reads
    /// under `label#i`, `i` the read's index), and before any component
    /// starts the workflow declares, for each stream, how many such groups
    /// its whole plan subscribes.
    pub fn open_reader_grouped(
        &self,
        name: &str,
        group: &str,
        rank: usize,
        nranks: usize,
    ) -> StreamReader {
        assert!(rank < nranks, "reader rank out of range");
        let conn = self.transport.open_reader(name, group, rank, nranks);
        StreamReader::new(conn, &self.tracer, name, group, rank, nranks)
    }

    /// Names of all streams that have been opened on this hub.
    pub fn stream_names(&self) -> Vec<String> {
        self.transport.stream_names()
    }

    /// A snapshot of one stream's transfer counters.
    pub fn metrics(&self, name: &str) -> Option<StreamMetrics> {
        self.transport.metrics(name)
    }

    /// Snapshots of every stream, sorted by name. On a TCP hub this merges
    /// this process's local read-side counters into the broker's
    /// authoritative snapshot.
    pub fn all_metrics(&self) -> Vec<StreamMetrics> {
        self.transport.all_metrics()
    }

    // ---- fault injection -------------------------------------------------------

    /// Installs a fault-injection plan; component run loops consult it at
    /// the top of every step via [`StreamHub::fault_for`]. Replaces any
    /// previously installed plan.
    pub fn install_faults(&self, plan: FaultPlan) {
        *lock(&self.faults) = Some(Arc::new(plan));
    }

    /// The fault(s) to apply at `(component, rank, step)`; a no-op fault
    /// when no plan is installed.
    pub fn fault_for(&self, component: &str, rank: usize, step: u64) -> InjectedFault {
        let plan = lock(&self.faults).clone();
        match plan {
            Some(plan) => plan.consult(component, rank, step),
            None => InjectedFault::none(),
        }
    }

    // ---- supervision hooks -----------------------------------------------------

    /// Poisons every stream: all blocked (and future blocking) operations
    /// return [`crate::StreamError::PeerGone`] with `reason`. The workflow
    /// supervisor calls this on abort so no component hangs on a dead peer.
    pub fn poison_all(&self, reason: &str) {
        self.transport.poison_all(reason);
    }

    /// Forces a clean end-of-stream on `name` (creating it if necessary):
    /// readers drain the remaining complete steps, then observe EOS. Used
    /// when degrading a failed producer.
    pub fn force_end_of_stream(&self, name: &str) {
        self.transport.force_end_of_stream(name);
    }

    /// Detaches reader group `group` of stream `name` (creating the stream
    /// if necessary) so it no longer holds steps back. Used when the
    /// consuming component was degraded or torn down.
    pub fn detach_reader_group(&self, name: &str, group: &str) {
        self.transport.detach_reader_group(name, group);
    }

    /// Prepares the given input subscriptions (stream, group) and output
    /// streams for a component restart: partial reader releases are
    /// discarded and writer registrations reopened so the new incarnation
    /// resumes exactly where the last complete step left off.
    pub fn prepare_restart(&self, inputs: &[(String, String)], outputs: &[String]) {
        self.transport.prepare_restart(inputs, outputs);
    }
}
