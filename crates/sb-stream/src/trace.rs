//! Structured step-timeline tracing: per-thread event rings, a drained
//! [`Timeline`], and exporters (Chrome trace-event JSON, latency
//! histograms, a text waterfall).
//!
//! The paper's whole evaluation is timing evidence — per-timestep
//! completion times, per-process KB/s, end-to-end workflow time — but
//! aggregates cannot show *where inside a step* time went or *when* a
//! restart fired. This module records one event per step phase (input
//! wait, compute, publish), per stream transition (commit, blocked →
//! unblocked, EOS, poison), and per supervisor decision (fault injected,
//! restart attempt, degrade), each stamped with component label, rank,
//! stream and step, then drains them into a single ordered timeline.
//!
//! ## Overhead discipline
//!
//! Tracing must cost nothing measurable when disabled and very little when
//! enabled:
//!
//! - Every recording site is guarded by one relaxed [`AtomicBool`] load
//!   ([`Tracer::enabled`]); the disabled path takes no locks, no clocks
//!   beyond what the metrics counters already take, and allocates nothing.
//! - When enabled, events land in a *thread-owned* pre-allocated ring
//!   ([`Tracer::install_thread_ring`]): pushing is a plain bounded-vector
//!   write with zero synchronization. Rings flush into the shared sink
//!   exactly once, when the owning thread's guard drops.
//! - Threads without an installed ring (ad-hoc bench threads, hub calls
//!   from the runtime thread) fall back to a mutex push — correct, just
//!   not on the per-step fast path.
//! - A full ring overwrites its *oldest* events and counts them in
//!   [`Timeline::dropped`]: a long run degrades to "most recent window",
//!   never to unbounded memory.
//!
//! Strings never travel with events: labels and stream names are interned
//! once ([`Tracer::intern`]) and events carry `u32` ids.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sb_data::lock;

/// Default per-thread ring capacity, in events. At 8 events per step a
/// component rank traces ~8k steps before the ring starts dropping its
/// oldest events.
pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

/// Tracing configuration, passed through
/// `RunOptions::with_tracing(TraceConfig)` (or implied by `SB_TRACE=1`).
///
/// Marked `#[non_exhaustive]` so future knobs (sampling, category masks)
/// are not breaking changes: construct via [`TraceConfig::default`] and
/// refine with the `with_*` setters.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Capacity of each thread's event ring, in events; a full ring drops
    /// its oldest events (counted in [`Timeline::dropped`]).
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

impl TraceConfig {
    /// The default configuration.
    pub fn new() -> TraceConfig {
        TraceConfig::default()
    }

    /// Sets the per-thread ring capacity (builder style).
    pub fn with_ring_capacity(mut self, ring_capacity: usize) -> TraceConfig {
        assert!(ring_capacity >= 1, "ring capacity must be at least 1");
        self.ring_capacity = ring_capacity;
        self
    }
}

/// What one trace event describes. Span kinds carry a duration; instant
/// kinds mark a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// One whole timestep of a component rank (begin-input to end-output).
    Step,
    /// Time a component rank spent blocked waiting for input data.
    Wait,
    /// Time a component rank spent reading + transforming (the per-step
    /// body, including the MxN gather out of the committed slots).
    Compute,
    /// Time a component rank spent publishing its output step (begin_step
    /// through end_step on the output stream, including backpressure).
    Publish,
    /// A writer rank blocked in `begin_step` (in process, until buffer
    /// space freed) or in `end_step` (a rendezvous hand-off; over a remote
    /// fabric, the whole step's one round trip, buffer space included, and
    /// the streamed encode of its payloads: a remote `put` encodes headers).
    WriterBlocked,
    /// A reader rank blocked in `begin_step` until a step was committed.
    ReaderBlocked,
    /// The last writer rank committed a step (it became readable).
    StepCommitted,
    /// The stream ended: last writer closed, or the supervisor forced EOS
    /// while degrading a failed producer (`arg = 1` when forced).
    EndOfStream,
    /// The supervisor poisoned the stream during teardown.
    Poisoned,
    /// A seeded chaos fault fired at this site (`arg` holds the
    /// [`crate::FaultOp`] as 1 = kill, 2 = stall, 3 = drop-chunk).
    FaultInjected,
    /// The supervisor is about to respawn a failed component (`arg` holds
    /// the upcoming attempt number, so the first restart records 2).
    RestartAttempt,
    /// The supervisor degraded a failed component: outputs were forced to
    /// EOS and its input subscriptions detached.
    Degraded,
    /// A wire codec compressed one step's payload before framing it
    /// (`arg` holds the bytes saved: uncompressed minus wire size).
    Compressed,
    /// A broker reader session answered a step fetch with bytes it already
    /// held — the writer's own frame bytes, or another reader's encode —
    /// without running the wire codec (`arg` holds the reply's frame bytes).
    RelayPassThrough,
    /// A broker reader session had to encode (and, if negotiated, compress)
    /// at least one chunk to answer a step fetch: the writer was in-proc or
    /// v1, used another codec, or wrote before any v2 reader attached
    /// (`arg` holds the reply's frame bytes).
    RelayEncoded,
    /// A fired trigger action was skipped because the backend cannot
    /// perform it (e.g. `snapshot_stream` on a transport that does not
    /// expose buffered steps); the fired record carries the same outcome.
    TriggerSkipped,
}

impl EventKind {
    /// True for kinds that carry a duration (rendered as Chrome `"X"`
    /// complete events); instants render as `"i"`.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::Step
                | EventKind::Wait
                | EventKind::Compute
                | EventKind::Publish
                | EventKind::WriterBlocked
                | EventKind::ReaderBlocked
        )
    }

    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Step => "step",
            EventKind::Wait => "wait",
            EventKind::Compute => "compute",
            EventKind::Publish => "publish",
            EventKind::WriterBlocked => "writer_blocked",
            EventKind::ReaderBlocked => "reader_blocked",
            EventKind::StepCommitted => "step_committed",
            EventKind::EndOfStream => "end_of_stream",
            EventKind::Poisoned => "poisoned",
            EventKind::FaultInjected => "fault_injected",
            EventKind::RestartAttempt => "restart_attempt",
            EventKind::Degraded => "degraded",
            EventKind::Compressed => "compressed",
            EventKind::RelayPassThrough => "relay_pass_through",
            EventKind::RelayEncoded => "relay_encoded",
            EventKind::TriggerSkipped => "trigger_skipped",
        }
    }
}

/// One fixed-size, string-free event as it sits in a ring: interned ids
/// only, nanosecond offsets from the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEvent {
    /// What happened.
    pub kind: EventKind,
    /// Interned component label (0 = none; see [`Tracer::intern`]).
    pub label: u32,
    /// Interned stream name (0 = none).
    pub stream: u32,
    /// Rank within the component or stream endpoint group.
    pub rank: u32,
    /// Transport step the event belongs to.
    pub step: u64,
    /// Start offset from the tracer epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Kind-specific payload (attempt number, fault op, forced-EOS flag).
    pub arg: u64,
}

/// A resolved event of a drained [`Timeline`]: interned ids replaced with
/// their strings, times as [`Duration`]s since the workflow epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Component label, or `""` for stream-scoped events.
    pub component: String,
    /// Stream name, or `""` when the event is not tied to a stream.
    pub stream: String,
    /// Rank within the component or stream endpoint group.
    pub rank: u32,
    /// Transport step the event belongs to.
    pub step: u64,
    /// Offset of the event start from the tracer epoch.
    pub start: Duration,
    /// Span duration (zero for instants).
    pub duration: Duration,
    /// Kind-specific payload (attempt number, fault op, forced-EOS flag).
    pub arg: u64,
}

impl TraceEvent {
    /// Offset of the event end from the tracer epoch.
    pub fn end(&self) -> Duration {
        self.start + self.duration
    }
}

#[derive(Default)]
struct Interner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

/// The shared tracing state of one [`crate::StreamHub`]: the enabled flag,
/// the epoch, the string interner, and the sink that thread rings flush
/// into. One tracer per hub keeps concurrent workflows in one process
/// (e.g. parallel tests) from mixing timelines.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    ring_capacity: AtomicUsize,
    dropped: AtomicU64,
    interner: Mutex<Interner>,
    sink: Mutex<Vec<RawEvent>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer; [`Tracer::enable`] arms it.
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            ring_capacity: AtomicUsize::new(DEFAULT_RING_CAPACITY),
            dropped: AtomicU64::new(0),
            // Id 0 is reserved for "no label"/"no stream".
            interner: Mutex::new(Interner {
                ids: HashMap::from([(String::new(), 0)]),
                names: vec![String::new()],
            }),
            sink: Mutex::new(Vec::new()),
        }
    }

    /// Whether recording is armed. Every instrumentation site checks this
    /// first — one relaxed atomic load is the entire disabled-path cost.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Arms recording with `config`.
    pub fn enable(&self, config: &TraceConfig) {
        self.ring_capacity
            .store(config.ring_capacity, Ordering::Relaxed);
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Disarms recording; already-buffered events stay drainable.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Nanoseconds since the tracer epoch (the hub's construction).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Interns `name`, returning its stable id. Call once per endpoint
    /// (stream open, run-loop entry), never per event.
    pub fn intern(&self, name: &str) -> u32 {
        let mut interner = lock(&self.interner);
        if let Some(&id) = interner.ids.get(name) {
            return id;
        }
        let id = interner.names.len() as u32;
        interner.names.push(name.to_string());
        interner.ids.insert(name.to_string(), id);
        id
    }

    /// Interns the calling thread's component label ([`thread_label`]),
    /// or `fallback` off launch threads.
    pub fn intern_thread_label(&self, fallback: &str) -> u32 {
        self.intern(&thread_label().unwrap_or_else(|| fallback.to_string()))
    }

    /// Records a raw event: into this thread's installed ring when it
    /// belongs to this tracer, else directly into the shared sink. No-op
    /// while disabled.
    pub fn record(self: &Arc<Self>, event: RawEvent) {
        if !self.enabled() {
            return;
        }
        let ringed = THREAD_RING.with(|cell| {
            let mut slot = cell.borrow_mut();
            match slot.as_mut() {
                Some(ring) if Arc::ptr_eq(&ring.tracer, self) => {
                    ring.push(event);
                    true
                }
                _ => false,
            }
        });
        if !ringed {
            lock(&self.sink).push(event);
        }
    }

    /// Records a span of `kind` that started at `start_ns` and ends now.
    pub fn span(self: &Arc<Self>, kind: EventKind, site: TraceSite, start_ns: u64) {
        if !self.enabled() {
            return;
        }
        let dur_ns = self.now_ns().saturating_sub(start_ns);
        self.record(site.raw(kind, start_ns, dur_ns, 0));
    }

    /// Records an instant of `kind` happening now, with payload `arg`.
    pub fn instant(self: &Arc<Self>, kind: EventKind, site: TraceSite, arg: u64) {
        if !self.enabled() {
            return;
        }
        self.record(site.raw(kind, self.now_ns(), 0, arg));
    }

    /// Installs a pre-allocated event ring for the calling thread; events
    /// this thread records land in it without synchronization. The ring
    /// flushes into the tracer's sink when the guard drops. Returns a
    /// no-op guard while the tracer is disabled.
    pub fn install_thread_ring(self: &Arc<Self>) -> ThreadRingGuard {
        if !self.enabled() {
            return ThreadRingGuard;
        }
        let capacity = self.ring_capacity.load(Ordering::Relaxed).max(1);
        THREAD_RING.with(|cell| {
            // Flush any ring a previous guard leaked on this thread.
            if let Some(old) = cell.borrow_mut().replace(ThreadRing {
                tracer: Arc::clone(self),
                buf: Vec::with_capacity(capacity),
                capacity,
                written: 0,
            }) {
                old.flush();
            }
        });
        ThreadRingGuard
    }

    /// Drains everything recorded so far into an ordered [`Timeline`] and
    /// resets the sink and drop counter. Rings still installed on live
    /// threads are *not* drained — drop their guards first (the workflow
    /// runtime drains only after every rank and supervisor has joined).
    pub fn drain(&self) -> Timeline {
        let mut raw = std::mem::take(&mut *lock(&self.sink));
        raw.sort_by_key(|e| (e.start_ns, e.dur_ns, e.rank));
        let names = lock(&self.interner).names.clone();
        let resolve = |id: u32| names.get(id as usize).cloned().unwrap_or_default();
        let events = raw
            .into_iter()
            .map(|e| TraceEvent {
                kind: e.kind,
                component: resolve(e.label),
                stream: resolve(e.stream),
                rank: e.rank,
                step: e.step,
                start: Duration::from_nanos(e.start_ns),
                duration: Duration::from_nanos(e.dur_ns),
                arg: e.arg,
            })
            .collect();
        Timeline {
            events,
            dropped: self.dropped.swap(0, Ordering::Relaxed),
        }
    }
}

/// The stamp shared by every event from one instrumentation site:
/// interned component label, interned stream, rank, and step.
#[derive(Debug, Clone, Copy)]
pub struct TraceSite {
    /// Interned component label (0 = none).
    pub label: u32,
    /// Interned stream name (0 = none).
    pub stream: u32,
    /// Rank within the component or endpoint group.
    pub rank: u32,
    /// Transport step.
    pub step: u64,
}

impl TraceSite {
    /// A component-scoped site (no stream).
    pub fn component(label: u32, rank: usize, step: u64) -> TraceSite {
        TraceSite {
            label,
            stream: 0,
            rank: rank as u32,
            step,
        }
    }

    /// A stream-scoped site (no component label).
    pub fn stream(stream: u32, rank: usize, step: u64) -> TraceSite {
        TraceSite {
            label: 0,
            stream,
            rank: rank as u32,
            step,
        }
    }

    /// Attaches a stream id (builder style).
    pub fn on_stream(mut self, stream: u32) -> TraceSite {
        self.stream = stream;
        self
    }

    fn raw(self, kind: EventKind, start_ns: u64, dur_ns: u64, arg: u64) -> RawEvent {
        RawEvent {
            kind,
            label: self.label,
            stream: self.stream,
            rank: self.rank,
            step: self.step,
            start_ns,
            dur_ns,
            arg,
        }
    }
}

struct ThreadRing {
    tracer: Arc<Tracer>,
    buf: Vec<RawEvent>,
    capacity: usize,
    /// Total events pushed; `written - buf.len()` were overwritten.
    written: u64,
}

impl ThreadRing {
    fn push(&mut self, event: RawEvent) {
        let idx = (self.written % self.capacity as u64) as usize;
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[idx] = event;
        }
        self.written += 1;
    }

    /// Flushes in record order (oldest surviving event first) and accounts
    /// overwritten events as dropped.
    fn flush(self) {
        let tracer = self.tracer;
        let overwritten = self.written.saturating_sub(self.buf.len() as u64);
        if overwritten > 0 {
            tracer.dropped.fetch_add(overwritten, Ordering::Relaxed);
        }
        if self.buf.is_empty() {
            return;
        }
        let mut sink = lock(&tracer.sink);
        if self.written > self.buf.len() as u64 {
            // Wrapped: the oldest surviving event sits at the next
            // overwrite index.
            let split = (self.written % self.capacity as u64) as usize;
            sink.extend_from_slice(&self.buf[split..]);
            sink.extend_from_slice(&self.buf[..split]);
        } else {
            sink.extend_from_slice(&self.buf);
        }
    }
}

thread_local! {
    static THREAD_RING: RefCell<Option<ThreadRing>> = const { RefCell::new(None) };
}

/// Guard returned by [`Tracer::install_thread_ring`]; dropping it flushes
/// the calling thread's ring into the tracer sink.
#[must_use = "dropping the guard flushes the ring; hold it for the thread's lifetime"]
pub struct ThreadRingGuard;

impl Drop for ThreadRingGuard {
    fn drop(&mut self) {
        THREAD_RING.with(|cell| {
            if let Some(ring) = cell.borrow_mut().take() {
                ring.flush();
            }
        });
    }
}

/// Everything one run recorded, ordered by start time, with resolved
/// names. Attached to the workflow report and feeding every exporter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    /// All events, sorted by start offset.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrite (oldest-first eviction).
    pub dropped: u64,
}

impl Timeline {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded (tracing disabled, or drained twice).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one kind, in start order.
    pub fn of_kind(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Chrome trace-event JSON (the "JSON Array Format" with metadata),
    /// loadable in Perfetto / `chrome://tracing`.
    ///
    /// Tracks: one process per component (threads = ranks) and one process
    /// per stream (threads = endpoint ranks). Spans render as complete
    /// (`"X"`) events with microsecond timestamps; instants as thread-
    /// scoped `"i"` events carrying their payload in `args`.
    pub fn chrome_trace_json(&self) -> String {
        // Stable pid assignment: components first (sorted), then streams,
        // so diffing two exports of the same workflow is meaningful.
        let mut components: Vec<&str> = self
            .events
            .iter()
            .filter(|e| !e.component.is_empty())
            .map(|e| e.component.as_str())
            .collect();
        components.sort_unstable();
        components.dedup();
        let mut streams: Vec<&str> = self
            .events
            .iter()
            .filter(|e| e.component.is_empty() && !e.stream.is_empty())
            .map(|e| e.stream.as_str())
            .collect();
        streams.sort_unstable();
        streams.dedup();
        let pid_of = |e: &TraceEvent| -> usize {
            if !e.component.is_empty() {
                1 + components.binary_search(&e.component.as_str()).unwrap_or(0)
            } else if !e.stream.is_empty() {
                1 + components.len() + streams.binary_search(&e.stream.as_str()).unwrap_or(0)
            } else {
                0
            }
        };

        let mut entries: Vec<String> = Vec::new();
        for (i, name) in components.iter().enumerate() {
            entries.push(format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":{}}}}}",
                1 + i,
                json_string(name)
            ));
        }
        for (i, name) in streams.iter().enumerate() {
            entries.push(format!(
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":{}}}}}",
                1 + components.len() + i,
                json_string(&format!("stream {name}"))
            ));
        }
        for e in &self.events {
            let pid = pid_of(e);
            let ts = e.start.as_nanos() as f64 / 1e3;
            let mut args = format!("\"step\":{}", e.step);
            if !e.stream.is_empty() && !e.component.is_empty() {
                args.push_str(&format!(",\"stream\":{}", json_string(&e.stream)));
            }
            if e.arg != 0 {
                args.push_str(&format!(",\"arg\":{}", e.arg));
            }
            if e.kind.is_span() {
                let dur = e.duration.as_nanos() as f64 / 1e3;
                entries.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"name\":\"{}\",\
                     \"cat\":\"{}\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{{args}}}}}",
                    e.rank,
                    e.kind.name(),
                    category(e.kind),
                ));
            } else {
                entries.push(format!(
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{},\"name\":\"{}\",\
                     \"cat\":\"{}\",\"ts\":{ts:.3},\"s\":\"t\",\"args\":{{{args}}}}}",
                    e.rank,
                    e.kind.name(),
                    category(e.kind),
                ));
            }
        }
        format!(
            "{{\n\"traceEvents\":[\n{}\n],\n\"displayTimeUnit\":\"ms\",\n\
             \"otherData\":{{\"schema\":\"smartblock.trace.v1\",\"dropped_events\":{}}}\n}}\n",
            entries.join(",\n"),
            self.dropped
        )
    }

    /// Log-bucketed latency histograms, one per (component, span phase).
    /// Bucket `i` counts spans with duration in `[2^i, 2^(i+1))` ns.
    pub fn latency_histograms(&self) -> Vec<PhaseHistogram> {
        let mut by_key: BTreeMap<(String, EventKind), PhaseHistogram> = BTreeMap::new();
        for e in &self.events {
            if !e.kind.is_span() {
                continue;
            }
            let who = if e.component.is_empty() {
                format!("stream {}", e.stream)
            } else {
                e.component.clone()
            };
            let h = by_key
                .entry((who.clone(), e.kind))
                .or_insert_with(|| PhaseHistogram {
                    component: who,
                    phase: e.kind,
                    count: 0,
                    total: Duration::ZERO,
                    buckets: vec![0; 64],
                });
            h.record(e.duration);
        }
        by_key.into_values().collect()
    }

    /// A fixed-width text waterfall: one row per (component, rank) track,
    /// step spans drawn to scale with their wait fraction shaded. The
    /// quick look at "where did the time go" without leaving the terminal.
    pub fn waterfall(&self) -> String {
        const WIDTH: usize = 72;
        let span_end = self
            .events
            .iter()
            .map(|e| e.end())
            .max()
            .unwrap_or_default();
        let total_ns = span_end.as_nanos().max(1) as f64;
        let mut tracks: BTreeMap<(String, u32), Vec<char>> = BTreeMap::new();
        let mut paint = |key: (String, u32), e: &TraceEvent, glyph: char| {
            let row = tracks.entry(key).or_insert_with(|| vec![' '; WIDTH]);
            let lo = (e.start.as_nanos() as f64 / total_ns * WIDTH as f64) as usize;
            let hi = (e.end().as_nanos() as f64 / total_ns * WIDTH as f64).ceil() as usize;
            for cell in row
                .iter_mut()
                .take(hi.clamp(lo + 1, WIDTH))
                .skip(lo.min(WIDTH - 1))
            {
                // Wait shading and instant markers win over the step body.
                if *cell == ' ' || (*cell == '=' && glyph != '=') {
                    *cell = glyph;
                }
            }
        };
        for e in &self.events {
            let key = if e.component.is_empty() {
                (format!("stream {}", e.stream), e.rank)
            } else {
                (e.component.clone(), e.rank)
            };
            match e.kind {
                EventKind::Step => paint(key, e, '='),
                EventKind::Wait | EventKind::WriterBlocked | EventKind::ReaderBlocked => {
                    paint(key, e, '.')
                }
                EventKind::Publish => paint(key, e, '+'),
                EventKind::FaultInjected => paint(key, e, 'X'),
                EventKind::RestartAttempt => paint(key, e, 'R'),
                EventKind::Degraded => paint(key, e, 'D'),
                _ => {}
            }
        }
        let label_w = tracks
            .keys()
            .map(|(name, _)| name.len() + 3)
            .max()
            .unwrap_or(8);
        let mut out = format!(
            "timeline: {:.3}ms, {} events, {} dropped \
             (= step, . wait, + publish, X fault, R restart, D degrade)\n",
            span_end.as_secs_f64() * 1e3,
            self.events.len(),
            self.dropped
        );
        for ((name, rank), row) in &tracks {
            let label = format!("{name}/{rank}");
            out.push_str(&format!(
                "{label:>label_w$} |{}|\n",
                row.iter().collect::<String>()
            ));
        }
        out
    }
}

/// One component phase's log-bucketed latency distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseHistogram {
    /// Component label (or `stream <name>` for endpoint-blocked spans).
    pub component: String,
    /// The span phase the histogram covers.
    pub phase: EventKind,
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations.
    pub total: Duration,
    /// `buckets[i]` counts spans with duration in `[2^i, 2^(i+1))` ns.
    pub buckets: Vec<u64>,
}

impl PhaseHistogram {
    fn record(&mut self, duration: Duration) {
        let ns = duration.as_nanos() as u64;
        let bucket = if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        let last = self.buckets.len() - 1;
        self.buckets[bucket.min(last)] += 1;
        self.count += 1;
        self.total += duration;
    }

    /// Mean span duration.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        self.total / self.count as u32
    }

    /// A one-line render: component, phase, count, mean, and the populated
    /// bucket range as `2^lo..2^hi ns`.
    pub fn render(&self) -> String {
        let lo = self.buckets.iter().position(|&c| c > 0).unwrap_or(0);
        let hi = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(|b| b + 1)
            .unwrap_or(0);
        format!(
            "{:<16} {:<10} n={:<6} mean={:>10.3}us range=2^{lo}..2^{hi}ns",
            self.component,
            self.phase.name(),
            self.count,
            self.mean().as_nanos() as f64 / 1e3,
        )
    }
}

/// The calling thread's component label, if it is a rank thread: the
/// workflow runtime names rank threads `"<label>/<rank>"`, and that label
/// is workflow-unique — it distinguishes two instances of one component
/// type (GTCP wires Dim-Reduce twice) where the type's own base label
/// cannot.
pub fn thread_label() -> Option<String> {
    let thread = std::thread::current();
    let (label, _) = thread.name()?.rsplit_once('/')?;
    (!label.is_empty()).then(|| label.to_string())
}

fn category(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Step | EventKind::Wait | EventKind::Compute | EventKind::Publish => "phase",
        EventKind::WriterBlocked
        | EventKind::ReaderBlocked
        | EventKind::StepCommitted
        | EventKind::EndOfStream
        | EventKind::Poisoned
        | EventKind::Compressed
        | EventKind::RelayPassThrough
        | EventKind::RelayEncoded => "stream",
        EventKind::FaultInjected
        | EventKind::RestartAttempt
        | EventKind::Degraded
        | EventKind::TriggerSkipped => "supervisor",
    }
}

/// Minimal JSON string escaping for interned names (quotes, backslashes,
/// control characters).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(start_ns: u64, step: u64) -> RawEvent {
        RawEvent {
            kind: EventKind::Step,
            label: 0,
            stream: 0,
            rank: 0,
            step,
            start_ns,
            dur_ns: 10,
            arg: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Arc::new(Tracer::new());
        t.record(event(1, 0));
        t.span(EventKind::Wait, TraceSite::component(0, 0, 0), 0);
        t.instant(EventKind::Poisoned, TraceSite::stream(0, 0, 0), 0);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn ring_preserves_record_order_across_flush() {
        let t = Arc::new(Tracer::new());
        t.enable(&TraceConfig::default());
        {
            let _guard = t.install_thread_ring();
            for i in 0..10 {
                t.record(event(i, i));
            }
        }
        let tl = t.drain();
        assert_eq!(tl.dropped, 0);
        let steps: Vec<u64> = tl.events.iter().map(|e| e.step).collect();
        assert_eq!(steps, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let t = Arc::new(Tracer::new());
        t.enable(&TraceConfig::new().with_ring_capacity(4));
        {
            let _guard = t.install_thread_ring();
            for i in 0..10 {
                t.record(event(i, i));
            }
        }
        let tl = t.drain();
        assert_eq!(tl.dropped, 6, "10 recorded into a 4-slot ring");
        let steps: Vec<u64> = tl.events.iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![6, 7, 8, 9], "newest events survive, in order");
    }

    #[test]
    fn ringless_threads_fall_back_to_the_sink() {
        let t = Arc::new(Tracer::new());
        t.enable(&TraceConfig::default());
        t.record(event(5, 42)); // no ring installed on this thread
        let tl = t.drain();
        assert_eq!(tl.events.len(), 1);
        assert_eq!(tl.events[0].step, 42);
    }

    #[test]
    fn drain_sorts_across_threads_and_resolves_names() {
        let t = Arc::new(Tracer::new());
        t.enable(&TraceConfig::default());
        let label = t.intern("magnitude");
        let stream = t.intern("r.fp");
        let t2 = Arc::clone(&t);
        let handle = std::thread::spawn(move || {
            let _guard = t2.install_thread_ring();
            t2.record(RawEvent {
                kind: EventKind::Wait,
                label: 0,
                stream,
                rank: 1,
                step: 0,
                start_ns: 50,
                dur_ns: 5,
                arg: 0,
            });
        });
        handle.join().unwrap();
        t.record(RawEvent {
            kind: EventKind::Step,
            label,
            stream: 0,
            rank: 0,
            step: 0,
            start_ns: 10,
            dur_ns: 100,
            arg: 0,
        });
        let tl = t.drain();
        assert_eq!(tl.events.len(), 2);
        assert_eq!(tl.events[0].start, Duration::from_nanos(10));
        assert_eq!(tl.events[0].component, "magnitude");
        assert_eq!(tl.events[1].stream, "r.fp");
        assert!(t.drain().is_empty(), "drain resets the sink");
    }

    #[test]
    fn intern_is_stable_and_reserves_zero() {
        let t = Tracer::new();
        assert_eq!(t.intern(""), 0);
        let a = t.intern("select");
        assert_eq!(t.intern("select"), a);
        assert_ne!(t.intern("histogram"), a);
    }

    #[test]
    fn chrome_export_shapes_spans_and_instants() {
        let t = Arc::new(Tracer::new());
        t.enable(&TraceConfig::default());
        let label = t.intern("select");
        let stream = t.intern("s.fp");
        t.record(RawEvent {
            kind: EventKind::Step,
            label,
            stream: 0,
            rank: 2,
            step: 7,
            start_ns: 1000,
            dur_ns: 2000,
            arg: 0,
        });
        t.record(RawEvent {
            kind: EventKind::Poisoned,
            label: 0,
            stream,
            rank: 0,
            step: 7,
            start_ns: 1500,
            dur_ns: 0,
            arg: 0,
        });
        let json = t.drain().chrome_trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("smartblock.trace.v1"));
        assert!(json.contains("\"ph\":\"X\"") && json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"select\""));
        assert!(json.contains("\"name\":\"stream s.fp\""));
        assert!(json.contains("\"tid\":2"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn latency_histograms_bucket_by_log2() {
        let t = Arc::new(Tracer::new());
        t.enable(&TraceConfig::default());
        let label = t.intern("hist");
        for dur in [1u64, 2, 3, 1024] {
            t.record(RawEvent {
                kind: EventKind::Compute,
                label,
                stream: 0,
                rank: 0,
                step: 0,
                start_ns: 0,
                dur_ns: dur,
                arg: 0,
            });
        }
        let hs = t.drain().latency_histograms();
        assert_eq!(hs.len(), 1);
        let h = &hs[0];
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets[0], 1, "1ns -> bucket 0");
        assert_eq!(h.buckets[1], 2, "2-3ns -> bucket 1");
        assert_eq!(h.buckets[10], 1, "1024ns -> bucket 10");
        assert!(h.render().contains("compute"));
    }

    #[test]
    fn waterfall_renders_one_row_per_track() {
        let t = Arc::new(Tracer::new());
        t.enable(&TraceConfig::default());
        let label = t.intern("gen");
        for rank in 0..2u32 {
            t.record(RawEvent {
                kind: EventKind::Step,
                label,
                stream: 0,
                rank,
                step: 0,
                start_ns: 0,
                dur_ns: 1_000_000,
                arg: 0,
            });
        }
        let text = t.drain().waterfall();
        assert!(text.contains("gen/0"));
        assert!(text.contains("gen/1"));
        assert!(text.contains('='));
    }
}
