//! The measured system: a paper pipeline built from the public
//! `smartblock` / `sb-stream` API between a bench-owned source and a
//! bench-owned sink, on one of the three transport backends.
//!
//! Everything is observed from outside: the source and sink time their own
//! calls into `StreamWriter` / `StreamReader`, and the rest is read off the
//! `WorkflowReport` and `StreamMetrics` the program already exports.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use sb_comm::Communicator;
use sb_data::{AttrValue, Chunk, DataError};
use sb_sims::{LammpsSim, SimRank};
use sb_stream::{
    Compression, EventKind, ShmBroker, StepStatus, StreamError, StreamHub, StreamWriter, TcpBroker,
    TcpOptions, TraceConfig, TraceSite, WriterOptions,
};
use smartblock::prelude::{
    Component, ComponentError, ComponentResult, ComponentStats, Histogram, Magnitude, RunOptions,
    Select, Workflow, WorkflowReport,
};

use crate::capture::{self, Code, Reference, BINS, LAMMPS_KEEP};

/// Stream the pipeline's Histogram publishes on and the sink reads.
const HIST_STREAM: &str = "hist.fp";
const SOURCE_LABEL: &str = "bench-source";
const SINK_LABEL: &str = "bench-sink";
/// Steps at the head of every run left out of the latency sample: the
/// pipeline's queues are still filling and downstream threads still
/// attaching while they pass.
pub const WARMUP_STEPS: usize = 4;

/// Transport backend of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    InProc,
    /// Loopback TCP, wire v2, to an in-process `TcpBroker`.
    Tcp(Compression),
    /// `shm://` ring files, wire v2 uncompressed, to an in-process `ShmBroker`.
    Shm,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::InProc => "inproc",
            Backend::Tcp(Compression::None) => "tcp-v2",
            Backend::Tcp(Compression::Lz) => "tcp-v2+lz",
            Backend::Shm => "shm-v2",
        }
    }

    pub fn is_remote(self) -> bool {
        self != Backend::InProc
    }
}

/// What the bench-owned source puts each step.
#[derive(Clone)]
pub enum Feed {
    /// Captured chunks, `[frame][rank]`, cycled.
    Replay(Arc<Vec<Vec<Chunk>>>),
    /// A live LAMMPS run: `substeps` fine steps, then the rank's output chunk.
    Live { nx: usize, seed: u64, substeps: u64 },
}

/// When the source ends the stream.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After exactly this many steps: counters repeat exactly.
    Steps(u64),
    /// At the first step boundary this long after the source entered its loop.
    After(Duration),
}

/// How hard the closed loop drives the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// The source puts its next step as soon as the writer queue admits it:
    /// queues run full, the bottleneck stage sets the rate. Throughput runs.
    Saturated,
    /// One step in flight: the source creates step `s + 1` once the sink has
    /// read step `s`'s histogram. Latency runs — with full queues, latency
    /// is queue depth times period and flips with whichever stage happens
    /// to be slowest.
    Paced,
}

/// The sink's word to a paced source: how many histograms it has read.
#[derive(Default)]
struct Pace {
    seen: Mutex<u64>,
    moved: Condvar,
}

impl Pace {
    fn publish(&self, seen: u64) {
        *self.seen.lock().expect("pace counter") = seen;
        self.moved.notify_all();
    }

    /// Blocks until `seen >= want`; false if the sink stays silent for a minute.
    fn wait_for(&self, want: u64) -> bool {
        let guard = self.seen.lock().expect("pace counter");
        let (guard, _) = self
            .moved
            .wait_timeout_while(guard, Duration::from_secs(60), |seen| *seen < want)
            .expect("pace counter");
        *guard >= want
    }
}

/// One pipeline shape: ranks per component and the backend under it.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub code: Code,
    pub backend: Backend,
    pub source_ranks: usize,
    /// Select ranks (LAMMPS only).
    pub select_ranks: usize,
    pub magnitude_ranks: usize,
    pub histogram_ranks: usize,
}

impl Shape {
    /// Rank threads the workflow launches (source, components, sink).
    pub fn rank_threads(&self) -> usize {
        let select = match self.code {
            Code::Lammps => self.select_ranks,
            Code::Gromacs => 0,
        };
        self.source_ranks + select + self.magnitude_ranks + self.histogram_ranks + 1
    }
}

// ---------------------------------------------------------------- fabric

/// Directory for everything the benchmark writes: `<cargo target dir>/benchmark`.
/// The target directory is found from the running executable (the nearest
/// ancestor holding cargo's `CACHEDIR.TAG`), so output stays inside the
/// checkout whatever `CARGO_TARGET_DIR` says.
pub fn artefact_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let beside_exe = exe.parent().expect("executable has a parent directory");
    beside_exe
        .ancestors()
        .find(|dir| dir.join("CACHEDIR.TAG").is_file())
        .unwrap_or(beside_exe)
        .join("benchmark")
}

/// File-system type holding `path`, read off `/proc/mounts` (longest
/// mount-point prefix wins); "unknown" where that file is absent.
pub fn fs_type_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_dev, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
        .unwrap_or_else(|| "unknown".into())
}

enum Broker {
    None,
    Tcp(TcpBroker),
    Shm(ShmBroker),
}

/// A hub plus the in-process broker behind it, if the backend has one.
struct Fabric {
    hub: Arc<StreamHub>,
    broker: Broker,
}

static SHM_SERIAL: AtomicU64 = AtomicU64::new(0);

impl Fabric {
    /// Binds the broker (remote backends) and connects the client hub.
    fn open(backend: Backend) -> std::io::Result<Fabric> {
        let wire = |c| TcpOptions::default().with_compression(c);
        Ok(match backend {
            Backend::InProc => Fabric {
                hub: StreamHub::new(),
                broker: Broker::None,
            },
            Backend::Tcp(compression) => {
                let broker = TcpBroker::bind("127.0.0.1:0")?;
                let hub = StreamHub::connect_with(&broker.url(), wire(compression))?;
                Fabric {
                    hub,
                    broker: Broker::Tcp(broker),
                }
            }
            Backend::Shm => {
                // A fresh directory per bind: a live pid's rendezvous (our
                // own included) is refused like a bound address.
                let dir = artefact_dir().join(format!(
                    "shm-{}-{}",
                    std::process::id(),
                    SHM_SERIAL.fetch_add(1, Ordering::Relaxed)
                ));
                let broker = ShmBroker::bind(&dir.to_string_lossy())?;
                let hub = StreamHub::connect(&broker.url())?;
                Fabric {
                    hub,
                    broker: Broker::Shm(broker),
                }
            }
        })
    }

    /// Hangs up, waits until every broker session thread has ended and
    /// stops the broker. Returns the shm rendezvous directory, which must
    /// be gone by then.
    fn close(self) -> Option<PathBuf> {
        let Fabric { hub, broker } = self;
        drop(hub);
        let wait_idle = |active: &dyn Fn() -> usize| {
            let deadline = Instant::now() + Duration::from_secs(20);
            while active() > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        match broker {
            Broker::None => None,
            Broker::Tcp(mut b) => {
                wait_idle(&|| b.active_connections());
                b.shutdown();
                None
            }
            Broker::Shm(mut b) => {
                wait_idle(&|| b.active_connections());
                let dir = b.dir().to_path_buf();
                b.shutdown();
                Some(dir)
            }
        }
    }
}

// ---------------------------------------------------------------- source

/// What the bench-owned source observed, written by rank 0.
#[derive(Default)]
struct SourceProbe {
    loop_start: OnceLock<Instant>,
    first_commit: OnceLock<Instant>,
    /// Per step: the instant the step's data was ready, before `begin_step`.
    stamps: Mutex<Vec<Instant>>,
    begin_ns: AtomicU64,
    put_ns: AtomicU64,
    end_ns: AtomicU64,
    /// Live runs keep what each rank emitted so the reference can be
    /// computed from the very same data: `[rank][step]`.
    emitted: Mutex<Vec<Vec<Chunk>>>,
}

struct Source {
    stream: String,
    feed: Feed,
    stop: Stop,
    /// Present on paced runs.
    pace: Option<Arc<Pace>>,
    probe: Arc<SourceProbe>,
}

fn stream_error(label: &str, step: u64) -> impl Fn(StreamError) -> ComponentError + '_ {
    move |source| ComponentError::Stream {
        label: label.to_string(),
        step,
        source,
    }
}

fn data_error(label: &str, step: u64) -> impl Fn(DataError) -> ComponentError + '_ {
    move |source| ComponentError::Data {
        label: label.to_string(),
        step,
        source,
    }
}

impl Component for Source {
    fn label(&self) -> String {
        SOURCE_LABEL.into()
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.stream.clone()]
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        let mut writer = hub.open_writer(
            &self.stream,
            comm.rank(),
            comm.size(),
            WriterOptions::default(),
        );
        let mut stats = ComponentStats::default();
        match self.pump(comm, hub, &mut writer, &mut stats) {
            Ok(()) => {
                writer.close();
                Ok(stats)
            }
            Err(e) => {
                // Downstream must not mistake a failed source for a clean end.
                writer.abandon();
                Err(e)
            }
        }
    }
}

impl Source {
    fn pump(
        &self,
        comm: &Communicator,
        hub: &Arc<StreamHub>,
        writer: &mut StreamWriter,
        stats: &mut ComponentStats,
    ) -> Result<(), ComponentError> {
        let rank = comm.rank();
        let lead = rank == 0;
        let mut sim = match &self.feed {
            Feed::Live { nx, seed, .. } => Some(LammpsSim::new(
                capture::lammps_config(*nx, *seed),
                rank,
                comm.size(),
            )),
            Feed::Replay(_) => None,
        };
        let tracer = Arc::clone(hub.tracer());
        let trace_label = tracer
            .enabled()
            .then(|| tracer.intern_thread_label(SOURCE_LABEL));
        let span = |kind, step, start_ns| {
            if let Some(label) = trace_label {
                tracer.span(kind, TraceSite::component(label, rank, step), start_ns);
            }
        };
        let mut emitted = Vec::new();
        let loop_start = Instant::now();
        if lead {
            let _ = self.probe.loop_start.set(loop_start);
        }
        loop {
            let step = writer.current_step();
            if let (Some(pace), true) = (&self.pace, lead) {
                if !pace.wait_for(step) {
                    return Err(stream_error(SOURCE_LABEL, step)(StreamError::Timeout {
                        stream: HIST_STREAM.into(),
                        waiting_for: "the sink to read the previous step's histogram".into(),
                        timeout: Duration::from_secs(60),
                        detail: "paced run".into(),
                    }));
                }
            }
            let expired = match self.stop {
                Stop::Steps(n) => step >= n,
                Stop::After(d) => loop_start.elapsed() >= d,
            };
            // Every rank must end on the same step; one rank's clock decides.
            if comm.allreduce(expired && lead, |a, b| a || b) {
                break;
            }
            let step_start = Instant::now();
            let step_ns = tracer.now_ns();
            let chunk = match (&self.feed, sim.as_mut()) {
                (Feed::Live { substeps, .. }, Some(sim)) => {
                    for _ in 0..*substeps {
                        sim.substep(comm);
                    }
                    let chunk = sim.output_chunk();
                    emitted.push(chunk.clone());
                    chunk
                }
                (Feed::Replay(frames), _) => frames[step as usize % frames.len()][rank].clone(),
                (Feed::Live { .. }, None) => {
                    unreachable!("a live feed always builds its simulator")
                }
            };
            let compute = step_start.elapsed();
            span(EventKind::Compute, step, step_ns);
            let bytes = chunk.byte_len() as u64;

            let ready = Instant::now();
            let wait_ns = tracer.now_ns();
            writer
                .begin_step()
                .map_err(stream_error(SOURCE_LABEL, step))?;
            let began = Instant::now();
            span(EventKind::Wait, step, wait_ns);
            let publish_ns = tracer.now_ns();
            writer.put(chunk);
            let put = Instant::now();
            writer
                .end_step()
                .map_err(stream_error(SOURCE_LABEL, step))?;
            let ended = Instant::now();
            span(EventKind::Publish, step, publish_ns);
            span(EventKind::Step, step, step_ns);

            if lead {
                let _ = self.probe.first_commit.set(ended);
                self.probe.stamps.lock().expect("stamp list").push(ready);
                let ns = |d: Duration| d.as_nanos() as u64;
                self.probe
                    .begin_ns
                    .fetch_add(ns(began - ready), Ordering::Relaxed);
                self.probe
                    .put_ns
                    .fetch_add(ns(put - began), Ordering::Relaxed);
                self.probe
                    .end_ns
                    .fetch_add(ns(ended - put), Ordering::Relaxed);
            }
            stats.bytes_out += bytes;
            stats.record_step(
                step_start.elapsed(),
                (began - ready) + (ended - put),
                compute,
                0,
            );
        }
        if sim.is_some() {
            let mut all = self.probe.emitted.lock().expect("emitted chunks");
            if all.len() < comm.size() {
                all.resize(comm.size(), Vec::new());
            }
            all[rank] = emitted;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- sink

/// One histogram as the sink read it off the output stream.
#[derive(Debug, Clone)]
struct Arrival {
    step: u64,
    at: Instant,
    histogram: Reference,
}

#[derive(Default)]
struct SinkProbe {
    arrivals: Mutex<Vec<Arrival>>,
    get_ns: AtomicU64,
}

struct Sink {
    pace: Option<Arc<Pace>>,
    probe: Arc<SinkProbe>,
}

impl Component for Sink {
    fn label(&self) -> String {
        SINK_LABEL.into()
    }

    fn input_streams(&self) -> Vec<String> {
        vec![HIST_STREAM.into()]
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        let rank = comm.rank();
        let mut reader = hub.open_reader(HIST_STREAM, rank, comm.size());
        let tracer = Arc::clone(hub.tracer());
        let trace_label = tracer
            .enabled()
            .then(|| tracer.intern_thread_label(SINK_LABEL));
        let span = |kind, step, start_ns| {
            if let Some(label) = trace_label {
                tracer.span(kind, TraceSite::component(label, rank, step), start_ns);
            }
        };
        let mut stats = ComponentStats::default();
        let mut arrivals = Vec::new();
        loop {
            let step_start = Instant::now();
            let step_ns = tracer.now_ns();
            let expected = reader.current_step();
            let step = match reader
                .begin_step()
                .map_err(stream_error(SINK_LABEL, expected))?
            {
                StepStatus::EndOfStream => break,
                StepStatus::Ready(step) => step,
            };
            let wait = step_start.elapsed();
            span(EventKind::Wait, step, step_ns);
            let get_ns = tracer.now_ns();
            let get_start = Instant::now();
            let counts = reader
                .get_whole("counts")
                .map_err(data_error(SINK_LABEL, step))?;
            let at = Instant::now();
            span(EventKind::Compute, step, get_ns);
            let attr = |key: &str| match counts.attrs.get(key) {
                Some(AttrValue::Float(v)) => *v,
                _ => f64::NAN,
            };
            let bytes = counts.byte_len() as u64;
            arrivals.push(Arrival {
                step,
                at,
                histogram: Reference {
                    min: attr("min"),
                    max: attr("max"),
                    counts: counts
                        .data
                        .to_f64_vec()
                        .into_iter()
                        .map(|c| c as u64)
                        .collect(),
                },
            });
            reader.end_step();
            if let Some(pace) = &self.pace {
                pace.publish(step + 1);
            }
            span(EventKind::Step, step, step_ns);
            self.probe
                .get_ns
                .fetch_add((at - get_start).as_nanos() as u64, Ordering::Relaxed);
            stats.record_step(step_start.elapsed(), wait, at - get_start, bytes);
        }
        *self.probe.arrivals.lock().expect("arrival list") = arrivals;
        Ok(stats)
    }
}

// ---------------------------------------------------------------- one run

/// Everything one run of one pipeline yields.
pub struct RunResult {
    /// Fabric open + workflow launch -> first step committed at the source.
    pub setup_s: f64,
    /// Source enters its step loop -> last histogram seen by the sink.
    pub region_s: f64,
    /// Last histogram -> `run_with` returned (EOS propagation and joins).
    pub join_s: f64,
    pub steps: u64,
    pub payload_bytes: u64,
    /// Source stamp -> histogram at the sink, per step past the warm-up, ms.
    pub latencies_ms: Vec<f64>,
    /// Steps whose histogram is missing or differs from the reference.
    pub failed: u64,
    /// The histograms of the first steps, for cross-backend comparison.
    pub head: Vec<Reference>,
    pub source_begin_s: f64,
    pub source_put_s: f64,
    pub source_end_s: f64,
    pub sink_get_s: f64,
    /// Component stats and, in `streams`, the counters as the metering
    /// authority (the broker, on remote backends) saw them.
    pub report: WorkflowReport,
}

impl RunResult {
    pub fn payload_mb_s(&self) -> f64 {
        self.payload_bytes as f64 / 1e6 / self.region_s
    }

    pub fn period_ms(&self) -> f64 {
        self.region_s * 1e3 / self.steps.max(1) as f64
    }
}

/// Builds the pipeline of `shape` around a bench-owned source and sink,
/// runs it to completion, verifies every histogram and tears the fabric
/// down. `reference` holds one histogram per replayed frame; live runs
/// compute theirs from what the simulator emitted.
pub fn run_pipeline(
    shape: &Shape,
    feed: Feed,
    stop: Stop,
    load: Load,
    reference: &[Reference],
    traced: bool,
) -> Result<RunResult, String> {
    let pace = (load == Load::Paced).then(|| Arc::new(Pace::default()));
    let source_probe = Arc::new(SourceProbe::default());
    let sink_probe = Arc::new(SinkProbe::default());
    let live = matches!(feed, Feed::Live { .. });

    let t0 = Instant::now();
    let fabric = Fabric::open(shape.backend)
        .map_err(|e| format!("opening {}: {e}", shape.backend.name()))?;
    let mut wf = Workflow::with_hub(Arc::clone(&fabric.hub));
    let source_stream = shape.code.source_stream();
    wf.add(
        shape.source_ranks,
        Source {
            stream: source_stream.into(),
            feed,
            stop,
            pace: pace.clone(),
            probe: Arc::clone(&source_probe),
        },
    );
    let magnitude_in = match shape.code {
        Code::Lammps => {
            wf.add(
                shape.select_ranks,
                Select::new(
                    (source_stream, shape.code.array()),
                    1,
                    LAMMPS_KEEP,
                    ("lmpselect.fp", "lmpsel"),
                ),
            );
            ("lmpselect.fp", "lmpsel")
        }
        Code::Gromacs => (source_stream, shape.code.array()),
    };
    wf.add(
        shape.magnitude_ranks,
        Magnitude::new(magnitude_in, ("mag.fp", "magnitudes")),
    );
    wf.add(
        shape.histogram_ranks,
        Histogram::new(("mag.fp", "magnitudes"), BINS).with_output_stream(HIST_STREAM),
    );
    wf.add(
        1,
        Sink {
            pace,
            probe: Arc::clone(&sink_probe),
        },
    );
    let mut options = RunOptions::new().with_hub_timeout(Duration::from_secs(60));
    if traced {
        options = options.with_tracing(TraceConfig::new());
    }
    let report = wf
        .run_with(options)
        .map_err(|e| format!("workflow failed: {e}"))?;
    let returned = Instant::now();
    if let Some(dir) = fabric.close() {
        if dir.exists() {
            return Err(format!(
                "shm rendezvous directory {} survived the run",
                dir.display()
            ));
        }
    }

    let stamps = std::mem::take(&mut *source_probe.stamps.lock().expect("stamp list"));
    let arrivals = std::mem::take(&mut *sink_probe.arrivals.lock().expect("arrival list"));
    let loop_start = *source_probe
        .loop_start
        .get()
        .ok_or("the source never entered its loop")?;
    let first_commit = *source_probe
        .first_commit
        .get()
        .ok_or("the source committed no step")?;
    let last_seen = arrivals
        .last()
        .map(|a| a.at)
        .ok_or("the sink saw no histogram")?;

    let live_reference;
    let reference = if live {
        let emitted = std::mem::take(&mut *source_probe.emitted.lock().expect("emitted chunks"));
        live_reference = live_references(&emitted)?;
        &live_reference[..]
    } else {
        reference
    };
    let mut matched = 0u64;
    let mut latencies_ms = Vec::new();
    for a in &arrivals {
        let expect = &reference[a.step as usize % reference.len()];
        if (a.step as usize) < stamps.len() && expect.matches(&a.histogram) {
            matched += 1;
        }
        if a.step as usize >= WARMUP_STEPS {
            if let Some(stamp) = stamps.get(a.step as usize) {
                latencies_ms.push((a.at - *stamp).as_secs_f64() * 1e3);
            }
        }
    }
    let steps = stamps.len() as u64;
    let payload_bytes = report
        .streams
        .iter()
        .find(|m| m.stream == source_stream)
        .map_or(0, |m| m.bytes_written);
    let secs = |ns: &AtomicU64| ns.load(Ordering::Relaxed) as f64 / 1e9;
    Ok(RunResult {
        setup_s: (first_commit - t0).as_secs_f64(),
        region_s: (last_seen - loop_start).as_secs_f64(),
        join_s: (returned - last_seen).as_secs_f64(),
        steps,
        payload_bytes,
        latencies_ms,
        failed: steps - matched.min(steps),
        head: arrivals
            .iter()
            .take(8)
            .map(|a| a.histogram.clone())
            .collect(),
        source_begin_s: secs(&source_probe.begin_ns),
        source_put_s: secs(&source_probe.put_ns),
        source_end_s: secs(&source_probe.end_ns),
        sink_get_s: secs(&sink_probe.get_ns),
        report,
    })
}

/// Reference histograms of a live run: each step's rank chunks joined back
/// into the whole frame (ranks own consecutive row blocks) and pushed
/// through the serial kernels.
fn live_references(emitted: &[Vec<Chunk>]) -> Result<Vec<Reference>, String> {
    let steps = emitted.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|step| {
            let parts: Vec<&Chunk> = emitted.iter().map(|rank| &rank[step]).collect();
            let meta = parts[0].meta.clone();
            let mut whole = sb_data::Buffer::with_capacity(meta.dtype, meta.shape.total_len());
            for part in &parts {
                whole
                    .append_from(&part.data, 0, part.data.len())
                    .map_err(|e| format!("joining live chunks: {e}"))?;
            }
            let region = sb_data::Region::whole(&meta.shape);
            let frame =
                Chunk::new(meta, region, whole).map_err(|e| format!("joined live frame: {e}"))?;
            capture::reference_histogram(Code::Lammps, &frame)
                .map_err(|e| format!("live reference: {e}"))
        })
        .collect()
}
