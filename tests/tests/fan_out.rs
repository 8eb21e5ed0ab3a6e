//! Fan-out: every subscriber of a stream sees every step. Nothing declares
//! a reader group or a subscriber count; each component reads under its
//! workflow label, and the workflow tells each writer how many groups its
//! stream has in the whole plan, so a subscriber that attaches late — after
//! a first one drained the stream, or in another process after the writer
//! closed — still gets every step.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sb_comm::Communicator;
use sb_data::{Buffer, Shape, Variable};
use sb_integration_tests::{chaos_seed, wait_until};
use sb_stream::tcp::TcpBroker;
use sb_stream::{ShmBroker, StreamHub};
use smartblock::component::{run_steps, StepEnd};
use smartblock::prelude::*;

const STEPS: u64 = 3;

fn step_variable(step: u64) -> Variable {
    let data: Vec<f64> = (0..8).map(|i| (i as u64 * 10 + step) as f64).collect();
    Variable::new("x", Shape::linear("n", 8), Buffer::from(data)).unwrap()
}

/// A workflow whose source publishes `STEPS` steps on `s.fp`.
fn sourced_workflow() -> Workflow {
    let mut wf = Workflow::with_hub(StreamHub::with_timeout(Duration::from_secs(20)));
    wf.add_source("gen", 1, "s.fp", |step| {
        (step < STEPS).then(|| step_variable(step))
    });
    wf
}

/// A sink on `s.fp` that counts the steps it is handed.
fn add_counting_sink(wf: &mut Workflow, label: &str) -> Arc<AtomicU64> {
    let seen = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&seen);
    wf.add_sink(label, 1, "s.fp", move |_, _| {
        counter.fetch_add(1, Ordering::SeqCst);
    });
    seen
}

/// Subscribes to `s.fp` only once `gate` has counted every step: the first
/// sink has taken them all before this component attaches.
struct GatedSubscriber {
    gate: Arc<AtomicU64>,
    seen: Arc<AtomicU64>,
}

impl Component for GatedSubscriber {
    fn label(&self) -> String {
        "gated".into()
    }

    fn input_streams(&self) -> Vec<String> {
        vec!["s.fp".into()]
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        wait_until("the first sink to take every step", || {
            self.gate.load(Ordering::SeqCst) == STEPS
        });
        run_steps(self, comm, hub, |_| {
            self.seen.fetch_add(1, Ordering::SeqCst);
            Ok(StepEnd::Publish {
                bytes_in: 0,
                compute: Duration::ZERO,
            })
        })
    }
}

#[test]
fn a_subscriber_that_attaches_after_the_first_drained_the_stream_sees_every_step() {
    let mut wf = sourced_workflow();
    let first = add_counting_sink(&mut wf, "first");
    let seen = Arc::new(AtomicU64::new(0));
    wf.add(
        1,
        GatedSubscriber {
            gate: Arc::clone(&first),
            seen: Arc::clone(&seen),
        },
    );
    assert!(wf.validate().is_empty(), "{:?}", wf.validate());
    wf.run_with(RunOptions::default()).unwrap();
    assert_eq!(first.load(Ordering::SeqCst), STEPS);
    assert_eq!(
        seen.load(Ordering::SeqCst),
        STEPS,
        "the gated subscriber missed steps"
    );
}

#[test]
fn two_sinks_on_one_stream_each_see_every_step_in_every_run() {
    const RUNS: usize = 200;
    let mut short = Vec::new();
    for run in 0..RUNS {
        let mut wf = sourced_workflow();
        let a = add_counting_sink(&mut wf, "a");
        let b = add_counting_sink(&mut wf, "b");
        wf.run_with(RunOptions::default()).unwrap();
        let got = (a.load(Ordering::SeqCst), b.load(Ordering::SeqCst));
        if got != (STEPS, STEPS) {
            short.push((run, got));
        }
    }
    assert!(
        short.is_empty(),
        "{} of {RUNS} runs lost steps (run, (a, b)): {short:?}",
        short.len()
    );
}

/// `#` is reserved by the group rule: Combine's second read of `s.fp`
/// subscribes as `combine#1`, so a component under that label would share
/// the group and the two would split its steps between them. The label is
/// refused where it enters; were it admitted, the sink would miss steps.
#[test]
#[should_panic(expected = "reserved for reader groups")]
fn a_label_containing_a_hash_is_refused_before_it_can_take_a_reader_group() {
    let mut wf = sourced_workflow();
    wf.add(
        1,
        Combine::new(("s.fp", "x"), BinaryOp::Add, ("s.fp", "x"), ("c.fp", "y")),
    );
    let sums = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&sums);
    wf.add_sink("sums", 1, "c.fp", move |_, _| {
        counter.fetch_add(1, Ordering::SeqCst);
    });
    let seen = add_counting_sink(&mut wf, "combine#1");
    wf.run_with(RunOptions::default()).unwrap();
    assert_eq!(sums.load(Ordering::SeqCst), STEPS);
    assert_eq!(
        seen.load(Ordering::SeqCst),
        STEPS,
        "the sink labelled combine#1 missed steps"
    );
}

/// A GROMACS stream feeding two Magnitude → Histogram branches, each
/// histogram written to a file under `dir`.
fn two_branch_script(dir: &std::path::Path) -> String {
    let seed = chaos_seed();
    format!(
        "aprun -n 2 gromacs chains=6 len=6 steps={STEPS} interval=3 seed={seed} &\n\
         aprun -n 2 magnitude gromacs.fp coords r1.fp radii &\n\
         aprun -n 3 magnitude gromacs.fp coords r2.fp radii &\n\
         aprun -n 1 histogram r1.fp radii 8 {} &\n\
         aprun -n 2 histogram r2.fp radii 5 {} &\n\
         wait\n",
        dir.join("h1.txt").display(),
        dir.join("h2.txt").display(),
    )
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sb-fan-out-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Both branches' histogram files, in branch order.
fn histograms(dir: &std::path::Path) -> [Vec<u8>; 2] {
    ["h1.txt", "h2.txt"].map(|f| std::fs::read(dir.join(f)).unwrap())
}

/// Runs the two-branch plan split the way `sb-run --serve`/`--connect`
/// splits it, one slice per hub in turn: the simulation alone, run to
/// completion — so its writer has closed before anyone subscribes — then
/// each of `slices`. Returns the histogram files.
fn split_run(url: &str, tag: &str, slices: &[&[&str]]) -> [Vec<u8>; 2] {
    let dir = scratch(tag);
    let plan = WorkflowPlan::from_script(&two_branch_script(&dir)).unwrap();
    let run = |labels: &[&str]| {
        let labels: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
        let report = plan
            .workflow(StreamHub::connect(url).unwrap(), &labels)
            .unwrap()
            .run_with(RunOptions::new().with_validation(Validation::Skip))
            .unwrap_or_else(|e| panic!("{tag}: slice {labels:?}: {e}"));
        for label in &labels {
            assert_eq!(
                report.component(label).unwrap().stats.steps,
                STEPS,
                "{tag}: {label} missed steps"
            );
        }
    };
    run(&["gromacs"]);
    for slice in slices {
        run(slice);
    }
    let files = histograms(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    files
}

#[test]
fn subscribers_in_another_process_see_every_step_over_tcp_and_shm() {
    let dir = scratch("in-proc");
    let plan = WorkflowPlan::from_script(&two_branch_script(&dir)).unwrap();
    let report = plan
        .workflow(StreamHub::new(), &[])
        .unwrap()
        .run_with(RunOptions::new())
        .unwrap();
    assert_eq!(report.component("histogram-2").unwrap().stats.steps, STEPS);
    let reference = histograms(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(reference.iter().all(|h| !h.is_empty()));

    // Both subscribers in one slice, and each in a slice of its own that
    // starts only once the other has finished.
    let together: &[&[&str]] = &[&["magnitude", "magnitude-2", "histogram", "histogram-2"]];
    let in_turn: &[&[&str]] = &[&["magnitude", "histogram"], &["magnitude-2", "histogram-2"]];
    for (slices, how) in [(together, "together"), (in_turn, "in-turn")] {
        // A fresh broker per run: stream names are reused.
        let tcp = TcpBroker::bind("127.0.0.1:0").unwrap();
        let tag = format!("tcp-{how}");
        assert_eq!(split_run(&tcp.url(), &tag, slices), reference, "{tag}");

        let rendezvous = scratch(&format!("shm-rendezvous-{how}"));
        std::fs::remove_dir_all(&rendezvous).unwrap();
        let shm = ShmBroker::bind(rendezvous.to_str().unwrap()).unwrap();
        let tag = format!("shm-{how}");
        assert_eq!(split_run(&shm.url(), &tag, slices), reference, "{tag}");
    }
}
