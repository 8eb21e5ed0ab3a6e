//! Cross-backend transport conformance: each of the three paper workflows
//! (LAMMPS, GTCP, GROMACS) must behave identically whether its streams run
//! through the in-proc hub, through a loopback TCP broker, or through a
//! same-host `shm://` broker — byte-identical histogram trajectories
//! (checked against the recorded goldens in `tests/golden/`) and equal
//! per-component step counts.
//!
//! This is the conformance contract of the `Transport` trait: a backend may
//! change *how* steps move, never *what* arrives.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_comm::LaunchHandle;
use sb_data::decompose::slab_partition;
use sb_data::{lock, Buffer, Chunk, DType, Shape, Variable, VariableMeta};
use sb_integration_tests::{chaos_seed, wait_until};
use sb_stream::tcp::TcpBroker;
use sb_stream::{
    Compression, ShmBroker, StepStatus, StreamError, StreamHub, StreamMetrics, StreamResult,
    TcpOptions, WireProtocol, WriterOptions,
};
use smartblock::metrics::WorkflowReport;
use smartblock::prelude::*;
use smartblock::select::select_rows;
use smartblock::workflows::{
    gromacs_workflow_on, gtcp_workflow_on, lammps_workflow_on, PresetScale,
};
use smartblock::HistogramResult;

/// The scale the goldens were recorded at (see `zero_copy.rs`).
fn scale() -> PresetScale {
    PresetScale {
        io_steps: 3,
        substeps: 3,
        bins: 12,
        ..PresetScale::default()
    }
}

fn render(results: &[HistogramResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!(
            "step {} min {:.17e} max {:.17e} counts {:?}\n",
            r.step, r.min, r.max, r.counts
        ));
    }
    out
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{name}_histogram.txt"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {path:?}: {e}"))
}

/// A fresh rendezvous directory for an shm broker (no tempfile crate in
/// tree; pid plus a counter keeps parallel test binaries apart).
fn shm_scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sb-conf-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

type Preset = fn(Arc<StreamHub>, &PresetScale) -> (Workflow, Arc<Mutex<Vec<HistogramResult>>>);

/// Per-component step counts, keyed by label so backends can be compared.
fn step_counts(report: &WorkflowReport) -> BTreeMap<String, u64> {
    report
        .components
        .iter()
        .map(|c| (c.label.clone(), c.stats.steps))
        .collect()
}

/// Runs `preset` on `hub` and returns the rendered histogram trajectory
/// plus every component's step count.
fn run_on(hub: Arc<StreamHub>, preset: Preset) -> (String, BTreeMap<String, u64>) {
    let (wf, results) = preset(hub, &scale());
    let report = wf.run_with(RunOptions::default()).unwrap();
    let rendered = render(&lock(&results));
    (rendered, step_counts(&report))
}

/// The conformance check: the workflow on the in-proc backend, on a
/// loopback TCP broker, and on a same-host `shm://` broker must all
/// reproduce the golden byte-for-byte, with identical per-component step
/// counts.
fn assert_backends_conform(name: &str, preset: Preset) {
    let (inproc, inproc_steps) = run_on(StreamHub::with_timeout(scale().wait_timeout), preset);
    assert_eq!(
        inproc,
        golden(name),
        "{name}: in-proc output diverged from the recorded golden"
    );

    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    let hub = StreamHub::connect(&broker.url()).unwrap();
    hub.set_wait_timeout(scale().wait_timeout);
    assert_eq!(hub.backend(), "tcp");
    let (tcp, tcp_steps) = run_on(hub, preset);
    assert_eq!(
        tcp,
        golden(name),
        "{name}: TCP output diverged from the recorded golden"
    );

    let dir = shm_scratch(name);
    let shm_broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
    let hub = StreamHub::connect(&shm_broker.url()).unwrap();
    hub.set_wait_timeout(scale().wait_timeout);
    assert_eq!(hub.backend(), "shm");
    let (shm, shm_steps) = run_on(hub, preset);
    assert_eq!(
        shm,
        golden(name),
        "{name}: shared-memory output diverged from the recorded golden"
    );

    assert_eq!(
        inproc_steps, tcp_steps,
        "{name}: backends disagree on per-component step counts"
    );
    assert_eq!(
        inproc_steps, shm_steps,
        "{name}: the shm backend disagrees on per-component step counts"
    );
    assert!(
        inproc_steps.values().all(|&s| s == scale().io_steps),
        "{name}: every component must see every step: {inproc_steps:?}"
    );
}

#[test]
fn lammps_workflow_conforms_across_backends() {
    assert_backends_conform("lammps", lammps_workflow_on);
}

#[test]
fn gtcp_workflow_conforms_across_backends() {
    assert_backends_conform("gtcp", gtcp_workflow_on);
}

#[test]
fn gromacs_workflow_conforms_across_backends() {
    assert_backends_conform("gromacs", gromacs_workflow_on);
}

/// The protocol half of the conformance contract: whatever frame grammar a
/// client negotiates — legacy v1, interned v2, or v2 with LZ-compressed
/// payloads — the bytes that arrive are the same bytes, on either remote
/// fabric. Every preset must reproduce its golden through each variant.
fn assert_wire_variant_conforms(url: &str, variant: &str, options: TcpOptions) {
    for (name, preset) in [
        ("lammps", lammps_workflow_on as Preset),
        ("gtcp", gtcp_workflow_on as Preset),
        ("gromacs", gromacs_workflow_on as Preset),
    ] {
        let hub = StreamHub::connect_with(url, options).unwrap();
        hub.set_wait_timeout(scale().wait_timeout);
        let (out, steps) = run_on(hub, preset);
        assert_eq!(
            out,
            golden(name),
            "{name} over {variant}: output diverged from the recorded golden"
        );
        assert!(
            steps.values().all(|&s| s == scale().io_steps),
            "{name} over {variant}: every component must see every step: {steps:?}"
        );
    }
}

#[test]
fn v1_tcp_clients_preserve_golden_outputs() {
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    assert_wire_variant_conforms(
        &broker.url(),
        "tcp-v1",
        TcpOptions::default().with_protocol(WireProtocol::V1),
    );
}

#[test]
fn v2_interned_tcp_clients_preserve_golden_outputs() {
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    assert_wire_variant_conforms(
        &broker.url(),
        "tcp-v2",
        TcpOptions::default().with_protocol(WireProtocol::V2),
    );
}

#[test]
fn compressed_tcp_clients_preserve_golden_outputs() {
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    assert_wire_variant_conforms(
        &broker.url(),
        "tcp-v2lz",
        TcpOptions::default().with_compression(Compression::Lz),
    );
}

#[test]
fn v1_shm_clients_preserve_golden_outputs() {
    let dir = shm_scratch("v1");
    let broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
    assert_wire_variant_conforms(
        &broker.url(),
        "shm-v1",
        TcpOptions::default().with_protocol(WireProtocol::V1),
    );
}

#[test]
fn v2_interned_shm_clients_preserve_golden_outputs() {
    let dir = shm_scratch("v2");
    let broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
    assert_wire_variant_conforms(
        &broker.url(),
        "shm-v2",
        TcpOptions::default().with_protocol(WireProtocol::V2),
    );
}

#[test]
fn compressed_shm_clients_preserve_golden_outputs() {
    let dir = shm_scratch("v2lz");
    let broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
    assert_wire_variant_conforms(
        &broker.url(),
        "shm-v2lz",
        TcpOptions::default().with_compression(Compression::Lz),
    );
}

/// Pumps `steps` steps of a `rows`-element f64 variable from a
/// `writers`-rank group to a `readers`-rank slab-reading group over one TCP
/// stream and returns the stream's counters.
fn wire_pump(
    hub: &Arc<StreamHub>,
    stream: &str,
    writers: usize,
    readers: usize,
    rows: usize,
    steps: u64,
) -> StreamMetrics {
    let shape = Shape::linear("rows", rows);

    let hub_w = Arc::clone(hub);
    let shape_w = shape.clone();
    let stream_w = stream.to_string();
    let writer = LaunchHandle::spawn("conf-writer", writers, move |comm| {
        let mut w = hub_w.open_writer(
            &stream_w,
            comm.rank(),
            comm.size(),
            WriterOptions::buffered(2),
        );
        let region = slab_partition(&shape_w, 0, comm.size(), comm.rank());
        let meta = VariableMeta::new("x", shape_w.clone(), DType::F64);
        let data = Buffer::F64((0..region.len()).map(|i| i as f64).collect());
        for _ in 0..steps {
            w.begin_step().unwrap();
            w.put(Chunk::new(meta.clone(), region.clone(), data.clone()).unwrap());
            w.end_step().unwrap();
        }
        w.close();
    })
    .expect("spawn conformance writers");

    let hub_r = Arc::clone(hub);
    let stream_r = stream.to_string();
    let reader = LaunchHandle::spawn("conf-reader", readers, move |comm| {
        let mut r = hub_r.open_reader(&stream_r, comm.rank(), comm.size());
        let region = slab_partition(&shape, 0, comm.size(), comm.rank());
        while let StepStatus::Ready(_) = r.begin_step().unwrap() {
            let v = r.get("x", &region).unwrap();
            assert_eq!(v.data.len(), region.len());
            r.end_step();
        }
    })
    .expect("spawn conformance readers");

    writer.join().expect("conformance writers");
    reader.join().expect("conformance readers");
    hub.metrics(stream).expect("pumped stream metrics")
}

/// The honest-accounting contract across writer/reader fan-out shapes:
/// each hop is metered once, where the broker sees it.
///
/// * the writer hop carries every committed payload byte exactly once,
///   with at most 10% framing overhead;
/// * the reader hop carries every payload byte once too, whatever the
///   reader count: a rank's request names the box it read last step and
///   the broker answers with the bytes that box touches. Only a
///   connection's first step, requested before any box is known, travels
///   whole to every rank — `(readers - 1) x` one step's payload in all;
/// * `bytes_on_wire` is exactly the sum of the two hops — the seed
///   counted both ends of both hops, reporting ~4x at 1x1;
/// * `wire_shm_bytes` is a fabric *attribution*, not a third hop: on a
///   `shm://` broker every frame byte is also in a hop counter, so
///   it equals `bytes_on_wire` there and is zero on TCP.
fn assert_accounting_matrix(url: &str, fabric: &str) {
    let steps = 4u64;
    let rows = 4096usize;
    for (writers, readers) in [(1usize, 1usize), (2, 2), (4, 2), (2, 3), (1, 4)] {
        let hub = StreamHub::connect(url).unwrap();
        let stream = format!("acct-{fabric}-w{writers}r{readers}.fp");
        let m = wire_pump(&hub, &stream, writers, readers, rows, steps);

        let moved = steps * (rows * 8) as u64;
        assert_eq!(m.steps_committed, steps, "{stream}");
        assert_eq!(m.bytes_written, moved, "{stream}");

        let writer_floor = moved;
        let reader_ceiling = moved + (readers as u64 - 1) * (moved / steps);
        assert!(
            m.wire_writer_bytes >= writer_floor,
            "{stream}: writer hop {} under payload floor {writer_floor}",
            m.wire_writer_bytes
        );
        assert!(
            (m.wire_writer_bytes as f64) <= 1.1 * writer_floor as f64,
            "{stream}: writer hop {} exceeds 1.1x floor {writer_floor} — \
             double-counting is back",
            m.wire_writer_bytes
        );
        assert!(
            m.wire_reader_bytes >= moved,
            "{stream}: reader hop {} under payload floor {moved}",
            m.wire_reader_bytes
        );
        assert!(
            (m.wire_reader_bytes as f64) <= 1.1 * reader_ceiling as f64,
            "{stream}: reader hop {} exceeds 1.1x {reader_ceiling} — whole steps \
             are going to {readers} readers again, or double-counting is back",
            m.wire_reader_bytes
        );
        assert_eq!(
            m.bytes_on_wire,
            m.wire_writer_bytes + m.wire_reader_bytes,
            "{stream}: the headline total must be exactly the sum of the hops"
        );
        let shm_expected = if fabric == "shm" { m.bytes_on_wire } else { 0 };
        assert_eq!(
            m.wire_shm_bytes, shm_expected,
            "{stream}: shared-memory attribution must cover every frame byte \
             on shm and stay zero elsewhere"
        );
    }
}

#[test]
fn wire_accounting_matrix_is_single_counted() {
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    assert_accounting_matrix(&broker.url(), "tcp");
    // The in-proc hub hands steps over by `Arc`: nothing is ever framed.
    let m = wire_pump(&StreamHub::new(), "acct-inproc.fp", 2, 2, 4096, 4);
    assert_eq!((m.steps_committed, m.bytes_on_wire), (4, 0));
}

#[test]
fn shm_accounting_matrix_is_single_counted_and_attributed() {
    let dir = shm_scratch("acct");
    let broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
    assert_accounting_matrix(&broker.url(), "shm");
}

/// Two workflows on one broker must not interfere: the paper's name-based
/// rendezvous scopes every stream, so running two presets concurrently over
/// the same TCP broker still reproduces both goldens.
#[test]
fn concurrent_workflows_share_a_broker_without_crosstalk() {
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    let url = broker.url();

    let url_b = url.clone();
    let gtcp = std::thread::spawn(move || {
        let hub = StreamHub::connect(&url_b).unwrap();
        run_on(hub, gtcp_workflow_on).0
    });
    let hub = StreamHub::connect(&url).unwrap();
    let gromacs = run_on(hub, gromacs_workflow_on).0;
    let gtcp = gtcp.join().unwrap();

    assert_eq!(gromacs, golden("gromacs"));
    assert_eq!(gtcp, golden("gtcp"));
}

/// Same crosstalk guarantee over the same-host fabric: two workflows'
/// connections through one rendezvous directory stay scoped by stream
/// name.
#[test]
fn concurrent_workflows_share_an_shm_broker_without_crosstalk() {
    let dir = shm_scratch("xtalk");
    let broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
    let url = broker.url();

    let url_b = url.clone();
    let gtcp = std::thread::spawn(move || {
        let hub = StreamHub::connect(&url_b).unwrap();
        run_on(hub, gtcp_workflow_on).0
    });
    let hub = StreamHub::connect(&url).unwrap();
    let gromacs = run_on(hub, gromacs_workflow_on).0;
    let gtcp = gtcp.join().unwrap();

    assert_eq!(gromacs, golden("gromacs"));
    assert_eq!(gtcp, golden("gtcp"));
}

/// Records, at each step it holds, how far the writer of `stream` got
/// ahead of it: the stream's committed steps once the writer is as far as
/// `queue` lets it go (or stopped), minus the held step. Holding step k
/// keeps it buffered, so a writer with queue depth q commits at most
/// k + q steps; a settling pause then shows whether it went further.
struct LeadProbe {
    stream: String,
    queue: u64,
    steps: u64,
    leads: Arc<Mutex<Vec<u64>>>,
}

impl Component for LeadProbe {
    fn label(&self) -> String {
        "lead-probe".into()
    }

    fn input_streams(&self) -> Vec<String> {
        vec![self.stream.clone()]
    }

    fn run(&self, comm: &sb_comm::Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        use smartblock::component::{run_steps, StepEnd};
        let committed = || hub.metrics(&self.stream).map_or(0, |m| m.steps_committed);
        run_steps(self, comm, hub, |io| {
            let want = (io.step + self.queue).min(self.steps);
            let deadline = Instant::now() + Duration::from_secs(10);
            while committed() < want && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(25));
            lock(&self.leads).push(committed() - io.step);
            Ok(StepEnd::Publish {
                bytes_in: 0,
                compute: Duration::ZERO,
            })
        })
    }
}

/// One `.sb` simulation line, with `policy` as its writer options, run on
/// `hub` under a [`LeadProbe`] expecting queue depth `queue`: the leads.
fn leads_under(hub: Arc<StreamHub>, policy: &str, queue: u64) -> Vec<u64> {
    const STEPS: u64 = 5;
    let script = format!("gromacs chains=4 len=4 steps={STEPS} interval=1 {policy}");
    let mut wf = WorkflowPlan::from_script(&script)
        .unwrap()
        .workflow(hub, &[])
        .unwrap();
    let leads = Arc::new(Mutex::new(Vec::new()));
    wf.add(
        1,
        LeadProbe {
            stream: "gromacs.fp".into(),
            queue,
            steps: STEPS,
            leads: Arc::clone(&leads),
        },
    );
    wf.run_with(RunOptions::default()).unwrap();
    let leads = lock(&leads).clone();
    leads
}

/// A launch line's writer policy reaches the writer on every backend: the
/// writer runs exactly as far ahead of its slowest reader in-proc, over
/// `tcp://` and over `shm://`. Under `rendezvous=1` that is one step;
/// under `queue=3` three, so a depth lost or wrapped on the way to a
/// remote broker shows as another lead.
#[test]
fn writer_policy_blocks_alike_on_every_backend() {
    for (policy, queue, expected) in [
        ("rendezvous=1", 1, vec![1; 5]),
        ("queue=3", 3, vec![3, 3, 3, 2, 1]),
    ] {
        let inproc = leads_under(StreamHub::new(), policy, queue);
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        let tcp = leads_under(StreamHub::connect(&broker.url()).unwrap(), policy, queue);
        let dir = shm_scratch("policy");
        let shm_broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
        let shm = leads_under(
            StreamHub::connect(&shm_broker.url()).unwrap(),
            policy,
            queue,
        );
        assert_eq!(inproc, expected, "{policy}: in-proc");
        assert_eq!(
            tcp, inproc,
            "{policy}: tcp:// blocks otherwise than in-proc"
        );
        assert_eq!(
            shm, inproc,
            "{policy}: shm:// blocks otherwise than in-proc"
        );
    }
}

/// Runs `check` on an in-proc hub, then on a client hub of a loopback TCP
/// broker and of a same-host `shm://` broker, each kept up while it runs.
/// Every hub waits at most `timeout`.
fn on_every_backend(tag: &str, timeout: Duration, mut check: impl FnMut(&str, Arc<StreamHub>)) {
    check("in-proc", StreamHub::with_timeout(timeout));
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    broker.hub().set_wait_timeout(timeout);
    check("tcp", StreamHub::connect(&broker.url()).unwrap());
    let dir = shm_scratch(tag);
    let shm_broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
    shm_broker.hub().set_wait_timeout(timeout);
    check("shm", StreamHub::connect(&shm_broker.url()).unwrap());
}

/// One step of `[value]` on `stream`, written and closed, then read back.
fn round_trip(hub: &Arc<StreamHub>, stream: &str, value: f64) -> StreamResult<Vec<f64>> {
    let mut w = hub.open_writer(stream, 0, 1, WriterOptions::default());
    w.begin_step()?;
    w.put_whole(Variable::new("x", Shape::linear("n", 1), Buffer::F64(vec![value])).unwrap());
    w.end_step()?;
    w.close();
    let mut r = hub.open_reader(stream, 0, 1);
    assert_eq!(r.begin_step()?, StepStatus::Ready(0));
    let read = r.get_whole("x").unwrap().data.to_f64_vec();
    r.end_step();
    assert_eq!(r.begin_step()?, StepStatus::EndOfStream);
    Ok(read)
}

/// The misusing handle's next fallible call, then the same call again.
type Misuse = fn(&Arc<StreamHub>) -> [StreamResult<()>; 2];

/// A one-row chunk of `grid`, which the rank writing it says is `len` rows.
fn grid_row(len: usize, row: usize) -> Chunk {
    let meta = VariableMeta::new("grid", Shape::linear("n", len), DType::F64);
    let region = sb_data::Region::new(vec![row], vec![1]);
    Chunk::new(meta, region, Buffer::F64(vec![row as f64])).unwrap()
}

/// Ranks that break the group protocol, one row each. The hub refuses the
/// misuse, and the misusing handle returns the refusal, typed, from its
/// next fallible call and from every call after it.
const MISUSE: [(&str, Misuse); 5] = [
    ("writer ranks disagree on group size", |hub| {
        let _rank0 = hub.open_writer("size.fp", 0, 2, WriterOptions::default());
        let mut other = hub.open_writer("size.fp", 0, 3, WriterOptions::default());
        [other.begin_step(), other.begin_step()]
    }),
    ("writer ranks disagree on policy", |hub| {
        let _rank0 = hub.open_writer("policy.fp", 0, 2, WriterOptions::buffered(2));
        let mut rank1 = hub.open_writer("policy.fp", 1, 2, WriterOptions::rendezvous());
        [rank1.begin_step(), rank1.begin_step()]
    }),
    ("reader ranks of one group disagree on group size", |hub| {
        let _rank0 = hub.open_reader_grouped("readers.fp", "g", 0, 2);
        let mut rank1 = hub.open_reader_grouped("readers.fp", "g", 1, 3);
        [rank1.begin_step().map(drop), rank1.begin_step().map(drop)]
    }),
    ("writer ranks put disagreeing metadata", |hub| {
        let mut rank0 = hub.open_writer("meta.fp", 0, 2, WriterOptions::default());
        let mut rank1 = hub.open_writer("meta.fp", 1, 2, WriterOptions::default());
        rank0.begin_step().unwrap();
        rank0.put(grid_row(4, 0));
        rank0.end_step().unwrap();
        rank1.begin_step().unwrap();
        rank1.put(grid_row(5, 1));
        [rank1.end_step(), rank1.end_step()]
    }),
    // Two reader handles claim rank 0 of one 1-rank group and both read
    // step 0: the second release is one more than the group has ranks.
    ("a refused release, then begin_step again", |hub| {
        let mut w = hub.open_writer("twice.fp", 0, 1, WriterOptions::default());
        w.begin_step().unwrap();
        w.put_whole(Variable::new("x", Shape::linear("n", 1), Buffer::F64(vec![1.0])).unwrap());
        w.end_step().unwrap();
        let mut a = hub.open_reader_grouped("twice.fp", "g", 0, 1);
        let mut b = hub.open_reader_grouped("twice.fp", "g", 0, 1);
        for r in [&mut a, &mut b] {
            assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
        }
        // A remote release is sent, not answered: `a`'s must land first for
        // `b`'s to be the refused one.
        a.end_step();
        let consumed = || hub.metrics("twice.fp").map_or(0, |m| m.steps_consumed);
        wait_until("the first release to land", || consumed() == 1);
        b.end_step();
        w.close();
        [b.begin_step().map(drop), b.begin_step().map(drop)]
    }),
];

/// The misuse table: each row is refused alike in process, over `tcp://`
/// and over `shm://` — the same variant and reason text, returned again by
/// the next call, at once rather than after the hub timeout — and the
/// refusal costs the hub none of its other streams.
#[test]
fn misuse_is_one_typed_refusal_on_every_backend() {
    for (row, misuse) in MISUSE {
        let mut outcomes = Vec::new();
        on_every_backend("misuse", Duration::from_secs(30), |backend, hub| {
            let started = Instant::now();
            let [first, again] = misuse(&hub);
            let took = started.elapsed();
            assert!(
                took < Duration::from_secs(5),
                "{row}, {backend}: took {took:?}"
            );
            assert!(
                matches!(first, Err(StreamError::PeerGone { .. })),
                "{row}, {backend}: expected a refusal, got {first:?}"
            );
            assert_eq!(again, first, "{row}, {backend}: asked again");
            assert_eq!(
                round_trip(&hub, "other.fp", 7.0),
                Ok(vec![7.0]),
                "{row}, {backend}: another stream of the hub failed after the refusal"
            );
            outcomes.push((backend.to_string(), first));
        });
        let (_, inproc) = &outcomes[0];
        for (backend, outcome) in &outcomes[1..] {
            assert_eq!(
                outcome, inproc,
                "{row}: {backend} answers otherwise than in-proc"
            );
        }
    }
}

/// Two reader handles claiming rank 0 of one 1-rank group both read step
/// 0. The hub refuses the second release; on every backend that rank's
/// next `begin_step` returns the refusal, and the hub's other streams
/// still work.
#[test]
fn a_refused_release_is_the_readers_next_typed_error_on_every_backend() {
    on_every_backend("release", Duration::from_secs(30), |backend, hub| {
        let mut w = hub.open_writer("twice.fp", 0, 1, WriterOptions::default());
        w.begin_step().unwrap();
        w.put_whole(Variable::new("x", Shape::linear("n", 1), Buffer::F64(vec![1.0])).unwrap());
        w.end_step().unwrap();
        let mut a = hub.open_reader_grouped("twice.fp", "g", 0, 1);
        let mut b = hub.open_reader_grouped("twice.fp", "g", 0, 1);
        for r in [&mut a, &mut b] {
            assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0), "{backend}");
        }
        // A remote release is sent, not answered: `a`'s must land first for
        // `b`'s to be the refused one.
        a.end_step();
        let consumed = || hub.metrics("twice.fp").map_or(0, |m| m.steps_consumed);
        wait_until("the first release to land", || consumed() == 1);
        b.end_step();
        let refused = match b.begin_step() {
            Err(StreamError::PeerGone { stream, reason }) => {
                assert_eq!(stream, "twice.fp", "{backend}");
                assert!(reason.contains("step 0"), "{backend}: {reason}");
                StreamError::PeerGone { stream, reason }
            }
            other => panic!("{backend}: expected the refused release, got {other:?}"),
        };
        // The refusal ended `b` alone: asking again is the same refusal at
        // once, not a hub-timeout wait or a broker connection lost.
        let started = Instant::now();
        assert_eq!(b.begin_step(), Err(refused), "{backend}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{backend}: the second call took {:?}",
            started.elapsed()
        );
        w.close();
        assert_eq!(
            round_trip(&hub, "after.fp", 2.0),
            Ok(vec![2.0]),
            "{backend}"
        );
    });
}

/// Step `step` of the frame-reuse stream, drawn from `seed`: `x` is large
/// (80k to 128k values) on even steps and small (1 to 64) on odd ones, so a
/// reused receive frame is always one of the other size, and `y` is there
/// on every third step only.
fn reuse_step(seed: u64, step: u64) -> Vec<Variable> {
    let mut rng = StdRng::seed_from_u64(seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (least, spread) = if step.is_multiple_of(2) {
        (80_000, 48_000)
    } else {
        (1, 64)
    };
    let len = least + (rng.next_u64() % spread) as usize;
    let mut draw = |len: usize| -> Buffer {
        Buffer::F64((0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
    };
    let mut vars = vec![Variable::new("x", Shape::linear("n", len), draw(len)).unwrap()];
    if step.is_multiple_of(3) {
        vars.push(Variable::new("y", Shape::linear("m", 5), draw(5)).unwrap());
    }
    vars
}

/// Writes `steps` frame-reuse steps to `hub` at queue depth 2 from a thread
/// of their own, while the calling thread reads each one whole; returns
/// every step as read, `(name, meta, little-endian bytes)` per variable.
/// `check` runs after every begin and end of a step.
fn read_reuse_steps(
    hub: &Arc<StreamHub>,
    seed: u64,
    steps: u64,
    check: &dyn Fn(),
) -> Vec<Vec<(String, VariableMeta, Vec<u8>)>> {
    // The reader opens first, so every step is relayed from the writer's
    // own frame.
    let mut r = hub.open_reader("reuse.fp", 0, 1);
    let writer = {
        let hub = Arc::clone(hub);
        std::thread::spawn(move || {
            let mut w = hub.open_writer("reuse.fp", 0, 1, WriterOptions::buffered(2));
            for step in 0..steps {
                w.begin_step().unwrap();
                for var in reuse_step(seed, step) {
                    w.put_whole(var);
                }
                w.end_step().unwrap();
            }
            w.close();
        })
    };
    let mut read = Vec::new();
    while r.begin_step().unwrap() != StepStatus::EndOfStream {
        check();
        let vars = r.variables().into_iter().map(|name| {
            let var = r.get_whole(&name).unwrap();
            (
                name.clone(),
                r.meta(&name).unwrap().clone(),
                var.data.to_le_bytes(),
            )
        });
        read.push(vars.collect());
        r.end_step();
        check();
    }
    writer.join().unwrap();
    read
}

/// A broker writer session receives each step into a frame the relay cache
/// let go of. Frames that alternate between large and small, and a variable
/// only some steps carry, must reach a v2 reader over `tcp://` and `shm://`
/// exactly as an in-proc reader reads the same steps, with the relay cache
/// spanning no more than queue + 1 steps throughout.
#[test]
fn relay_frame_reuse_steps_are_byte_identical_across_sizes() {
    let (seed, steps) = (chaos_seed(), 40);
    let want = read_reuse_steps(&StreamHub::new(), seed, steps, &|| {});
    assert_eq!(want.len(), steps as usize);
    let tcp = TcpBroker::bind("127.0.0.1:0").unwrap();
    let dir = shm_scratch("reuse");
    let shm = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
    let fabrics: [(String, &dyn Fn() -> usize); 2] = [
        (tcp.url(), &|| tcp.relay_cached_steps("reuse.fp")),
        (shm.url(), &|| shm.relay_cached_steps("reuse.fp")),
    ];
    for (url, cached) in fabrics {
        let hub = StreamHub::connect(&url).unwrap();
        let check = || assert!(cached() <= 3, "{url}: {} steps cached", cached());
        let got = read_reuse_steps(&hub, seed, steps, &check);
        for (step, (got, want)) in got.iter().zip(&want).enumerate() {
            assert!(
                got == want,
                "{url}: step {step} differs from the in-proc read"
            );
        }
        assert_eq!(got.len(), want.len(), "{url}");
    }
}

/// The queue depth of the output-reuse streams.
const REUSE_QUEUE: u64 = 2;

/// Step `step` of the output-reuse source: 512 particles × {ID, Type, vx,
/// vy, vz}, every value drawn from `seed` and the step.
fn particles_step(seed: u64, step: u64) -> Variable {
    let mut rng = StdRng::seed_from_u64(seed ^ step.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let data = (0..512 * 5).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Variable::new(
        "atoms",
        Shape::of(&[("particles", 512), ("props", 5)]),
        Buffer::F64(data),
    )
    .unwrap()
    .with_labels(1, &["ID", "Type", "vx", "vy", "vz"])
    .unwrap()
}

/// Select builds each step in storage of an earlier one that nothing holds
/// any more. A reader that keeps step `HELD`'s payload while Select runs
/// 3 × (queue + 1) more steps finds it bitwise as it was read, and every
/// other step reads as a fresh selection of its source.
#[test]
fn output_reuse_never_overwrites_a_held_step_on_every_backend() {
    const HELD: u64 = 3;
    const STEPS: u64 = HELD + 3 * (REUSE_QUEUE + 1) + 4;
    let seed = chaos_seed();
    on_every_backend("held", Duration::from_secs(30), |backend, hub| {
        hub.set_writer_options("sel.fp", WriterOptions::buffered(REUSE_QUEUE as usize));
        let source = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                let mut w = hub.open_writer("parts.fp", 0, 1, WriterOptions::default());
                for step in 0..STEPS {
                    w.begin_step().unwrap();
                    w.put_whole(particles_step(seed, step));
                    w.end_step().unwrap();
                }
                w.close();
            })
        };
        let select = {
            let hub = Arc::clone(&hub);
            LaunchHandle::spawn("select", 1, move |comm| {
                Select::new(
                    ("parts.fp", "atoms"),
                    1,
                    ["vx", "vy", "vz"],
                    ("sel.fp", "v"),
                )
                .run(&comm, &hub)
            })
            .unwrap()
        };
        let mut r = hub.open_reader("sel.fp", 0, 1);
        let mut held = None;
        let mut step = 0;
        while r.begin_step().unwrap() != StepStatus::EndOfStream {
            let want = select_rows(&particles_step(seed, step), 1, &[2, 3, 4]).unwrap();
            let want = want.data.to_le_bytes();
            let var = r.get_whole("v").unwrap();
            assert!(
                var.data.to_le_bytes() == want,
                "{backend}: step {step} is not its source's selection"
            );
            if step == HELD {
                held = Some((var, want));
            } else {
                drop(var);
            }
            r.end_step();
            if step == HELD + 3 * (REUSE_QUEUE + 1) {
                let (var, want) = held.as_ref().unwrap();
                assert!(
                    var.data.to_le_bytes() == *want,
                    "{backend}: held step {HELD} was overwritten by step {step}"
                );
            }
            step += 1;
        }
        assert_eq!(step, STEPS, "{backend}");
        source.join().unwrap();
        select.join().unwrap().remove(0).unwrap();
        let (var, want) = held.unwrap();
        assert!(var.data.to_le_bytes() == want, "{backend}: held step");
    });
}

/// Elements in each step of [`Reclaimer`]'s output.
const RECLAIMED_LEN: usize = 4096;

/// Per step, the step whose payload `reclaim` handed back, if any.
type Reclaims = Arc<Mutex<Vec<(u64, Option<u64>)>>>;

/// A source that writes `[step; RECLAIMED_LEN]` to `stream` each step, in
/// the storage `reclaim` hands it when it hands one, and records which
/// step's payload that storage held.
struct Reclaimer {
    stream: String,
    steps: u64,
    reclaimed: Reclaims,
}

impl Component for Reclaimer {
    fn label(&self) -> String {
        "reclaimer".into()
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.stream.clone()]
    }

    fn run(&self, comm: &sb_comm::Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        use smartblock::component::{run_steps, StepEnd};
        run_steps(self, comm, hub, |io| {
            if io.step == self.steps {
                return Ok(StepEnd::Done);
            }
            let storage = io.reclaim(0);
            let from = storage.as_ref().map(|b| b.get_f64(0) as u64);
            lock(&self.reclaimed).push((io.step, from));
            let mut values = match storage {
                Some(Buffer::F64(values)) => values,
                _ => Vec::new(),
            };
            values.clear();
            values.resize(RECLAIMED_LEN, io.step as f64);
            let shape = Shape::linear("n", RECLAIMED_LEN);
            io.put(
                0,
                Chunk::whole(Variable::new("x", shape, Buffer::F64(values))?),
            );
            Ok(StepEnd::Publish {
                bytes_in: 0,
                compute: Duration::ZERO,
            })
        })
    }
}

/// The step loop keeps the payloads of an output's last queue + 1 steps and
/// no older ones: `reclaim` never hands back storage from outside that
/// window, not even of a step a reader held past it. With a reader that
/// releases each step at once, storage comes back every step from step
/// queue + 2 on. Every step reads as written.
#[test]
fn output_reuse_keeps_at_most_queue_plus_one_steps_on_every_backend() {
    const STEPS: u64 = 24;
    const HELD: u64 = 2;
    on_every_backend("window", Duration::from_secs(30), |backend, hub| {
        for (stream, hold) in [("prompt.fp", false), ("held.fp", true)] {
            hub.set_writer_options(stream, WriterOptions::buffered(REUSE_QUEUE as usize));
            let reclaimed = Arc::new(Mutex::new(Vec::new()));
            let source = {
                let hub = Arc::clone(&hub);
                let reclaimer = Reclaimer {
                    stream: stream.into(),
                    steps: STEPS,
                    reclaimed: Arc::clone(&reclaimed),
                };
                LaunchHandle::spawn("reclaimer", 1, move |comm| reclaimer.run(&comm, &hub)).unwrap()
            };
            let mut r = hub.open_reader(stream, 0, 1);
            let mut held = None;
            let mut step = 0;
            while r.begin_step().unwrap() != StepStatus::EndOfStream {
                let want = Buffer::F64(vec![step as f64; RECLAIMED_LEN]).to_le_bytes();
                let var = r.get_whole("x").unwrap();
                assert!(var.data.to_le_bytes() == want, "{backend}: step {step}");
                // Released promptly: the view goes before the step does.
                if hold && step == HELD {
                    held = Some((var, want));
                } else {
                    drop(var);
                }
                r.end_step();
                if step == HELD + 3 * (REUSE_QUEUE + 1) {
                    if let Some((var, want)) = held.take() {
                        assert!(var.data.to_le_bytes() == want, "{backend}: held step");
                    }
                }
                step += 1;
            }
            source.join().unwrap().remove(0).unwrap();
            let reclaimed = lock(&reclaimed).clone();
            assert_eq!(reclaimed.len() as u64, STEPS, "{backend}");
            for (step, from) in reclaimed {
                if let Some(from) = from {
                    assert!(
                        from < step && step - from <= REUSE_QUEUE + 1,
                        "{backend}, hold {hold}: step {step} got step {from}'s storage"
                    );
                } else {
                    assert!(
                        hold || step < REUSE_QUEUE + 2,
                        "{backend}: nothing to reclaim at step {step}"
                    );
                }
            }
        }
    });
}
