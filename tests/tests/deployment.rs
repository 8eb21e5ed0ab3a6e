//! A workflow's one deployment artifact is its `.sb` launch script. Each
//! checked-in example script, run from the very plan `sb-run` builds, writes
//! its recorded golden histogram, in process and split across two
//! TCP-connected "processes"; and `#@ trigger` clauses reach the running
//! workflow through `Workflow::from_script_file`. Plus the reactive-trigger
//! regression: a seeded histogram spike provably flips a TemporalMean's
//! output stride mid-run.

use std::path::{Path, PathBuf};

use sb_data::{lock, Buffer, Shape, Variable};
use sb_stream::tcp::TcpBroker;
use sb_stream::StreamHub;
use smartblock::prelude::*;

fn read_example(stem: &str) -> String {
    let path = format!(
        "{}/../examples/scripts/{stem}.sb",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn run_whole(plan: &WorkflowPlan) -> WorkflowReport {
    let wf = plan
        .workflow(StreamHub::new(), &[])
        .unwrap_or_else(|e| panic!("{e}"));
    wf.run_with(RunOptions::new()).unwrap()
}

/// Writes `text` as `<name>.sb` in a scratch directory of this process and
/// returns its path, for `Workflow::from_script_file`.
fn script_file(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sb-deployment-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.sb"));
    std::fs::write(&path, text).unwrap();
    path
}

/// Byte-compares a run's histogram file against the recorded golden
/// (record with `SB_UPDATE_GOLDENS=1`).
fn assert_matches_golden(stem: &str, bytes: &[u8]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{stem}_hist.txt"));
    if std::env::var_os("SB_UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, bytes).unwrap();
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("cannot read golden {path:?}: {e} (SB_UPDATE_GOLDENS=1 records it)")
    });
    assert_eq!(
        bytes,
        &golden[..],
        "{stem}: histogram file diverged from the golden at {path:?}"
    );
}

/// Running each file-writing example script writes its recorded golden.
/// One test covers all three because they share their `/tmp` endpoint
/// paths with nothing else.
#[test]
fn example_script_runs_match_their_goldens() {
    for (stem, file) in [
        ("gromacs_spread", "/tmp/gromacs_spread_hist.txt"),
        ("gtcp_pressure", "/tmp/gtcp_pressure_hist.txt"),
        ("lammps_velocity", "/tmp/lammps_velocity_hist.txt"),
    ] {
        let plan = WorkflowPlan::from_script(&read_example(stem))
            .unwrap_or_else(|e| panic!("{stem}: {e:?}"));
        run_whole(&plan);
        let bytes = std::fs::read(file).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(!bytes.is_empty(), "{stem}: the run wrote nothing");
        assert_matches_golden(stem, &bytes);
    }
}

/// The gromacs_spread script, split across two TCP-connected processes the
/// way `sb-run --serve`/`--connect` splits it, writes the same bytes the
/// single-process run writes. Output paths are rewritten so this test
/// never races the golden comparison above on `/tmp`.
#[test]
fn script_split_across_tcp_matches_the_in_proc_run() {
    const REF: &str = "/tmp/gromacs_spread_hist_ref.txt";
    const TCP: &str = "/tmp/gromacs_spread_hist_tcp.txt";
    let text = read_example("gromacs_spread");
    let in_proc =
        WorkflowPlan::from_script(&text.replace("/tmp/gromacs_spread_hist.txt", REF)).unwrap();
    let split =
        WorkflowPlan::from_script(&text.replace("/tmp/gromacs_spread_hist.txt", TCP)).unwrap();

    run_whole(&in_proc);
    let reference = std::fs::read(REF).unwrap();
    assert!(!reference.is_empty());

    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    // "Process" A: the simulation, over its own TCP connection.
    let sim_plan = split.clone();
    let sim_url = broker.url();
    let sim = std::thread::spawn(move || {
        let hub = StreamHub::connect(&sim_url).unwrap();
        let wf = sim_plan.workflow(hub, &["gromacs".to_string()]).unwrap();
        wf.run_with(RunOptions::new().with_validation(Validation::Skip))
            .expect("simulation side")
    });
    // "Process" B: the analysis chain, over another connection.
    let hub = StreamHub::connect(&broker.url()).unwrap();
    let wf = split
        .workflow(hub, &["magnitude".to_string(), "histogram".to_string()])
        .unwrap();
    wf.run_with(RunOptions::new().with_validation(Validation::Skip))
        .expect("analysis side");
    sim.join().unwrap();

    let over_tcp = std::fs::read(TCP).unwrap();
    assert_eq!(
        over_tcp, reference,
        "gromacs_spread over TCP diverged from the in-proc run"
    );
}

/// The reactive-trigger regression: a seeded
/// spike in the histogram's input provably flips a TemporalMean's output
/// stride mid-run.
///
/// Topology: source -> temporal-mean (rendezvous output) -> histogram.
/// The rendezvous hand-off makes the flip step exact: temporal-mean's
/// `end_step(k)` returns only after the histogram *releases* step `k`,
/// and the histogram publishes its signals (firing the trigger) before
/// that release. So when the spike at step 3 fires the trigger, the mean
/// has published exactly steps 0..=3 at stride 1, and every later
/// decimation decision observes the new stride — the histogram sees
/// exactly 4 steps out of 6.
#[test]
fn seeded_spike_trigger_flips_temporal_mean_stride_mid_run() {
    const STEPS: u64 = 6;
    const SPIKE_STEP: u64 = 3;
    let mut wf = Workflow::new();
    wf.add_source("sim", 1, "sim.fp", |step| {
        (step < STEPS).then(|| {
            // Quiet steps stay in (0, 1]; the spike step peaks at 100.
            let peak = if step == SPIKE_STEP { 100.0 } else { 1.0 };
            let data: Vec<f64> = (0..16).map(|i| peak * (i + 1) as f64 / 16.0).collect();
            Variable::new("vals", Shape::of(&[("cells", 16)]), Buffer::from(data)).unwrap()
        })
    });
    wf.add(
        1,
        TemporalMean::new(("sim.fp", "vals"), 1, ("tm.fp", "smoothed")),
    );
    wf.set_writer_options("temporal-mean", WriterOptions::rendezvous());
    let hist = Histogram::new(("tm.fp", "smoothed"), 8);
    let results = hist.results_handle();
    wf.add(1, hist);
    wf.add_trigger(Trigger::new(
        "histogram",
        "max",
        TriggerOp::Gt,
        50.0,
        TriggerAction::SetOutputStride {
            target: "temporal-mean".into(),
            stride: 1000,
        },
    ));

    let report = wf.run_with(RunOptions::new()).unwrap();

    assert_eq!(report.triggers.len(), 1, "{:?}", report.triggers);
    let fire = &report.triggers[0];
    assert_eq!(fire.step, SPIKE_STEP);
    assert_eq!(fire.value, 100.0);
    assert!(fire.applied, "stride retarget was not applied: {fire:?}");

    // The mean consumed every input step; only its publishing decimated.
    assert_eq!(
        report.component("temporal-mean").unwrap().stats.steps,
        STEPS
    );
    assert_eq!(
        report.component("histogram").unwrap().stats.steps,
        SPIKE_STEP + 1,
        "stride flip did not take effect at the spike step"
    );
    let results = lock(&results);
    assert_eq!(results.len() as u64, SPIKE_STEP + 1);
    assert_eq!(
        results.last().unwrap().max,
        100.0,
        "spike step was published"
    );
}

/// Every component publishes `<label>.wait_ratio` from the one step loop,
/// so a DIVA-style clause on a component that used to run its own loop —
/// Threshold, or the simulation — now fires, once each.
#[test]
fn wait_ratio_trigger_fires_on_a_threshold_component() {
    let path = script_file(
        "wait-ratio",
        "gromacs chains=4 len=4 steps=3 interval=2\n\
         magnitude gromacs.fp coords gmag.fp radii\n\
         threshold gmag.fp radii gt 0.0 hot.fp hot\n\
         histogram hot.fp hot 4\n\
         #@ trigger when threshold.wait_ratio >= 0 then raise_fault_policy threshold degrade\n\
         #@ trigger when gromacs.wait_ratio >= 0 then raise_fault_policy gromacs degrade\n",
    );
    let report = Workflow::from_script_file(&path)
        .unwrap_or_else(|e| panic!("{e}"))
        .run_with(RunOptions::new())
        .unwrap();

    assert_eq!(report.component("threshold").unwrap().stats.steps, 3);
    // The simulation is a source on the same loop: its wait ratio is the
    // share of its step spent blocked on the output.
    assert_eq!(report.triggers.len(), 2, "{:?}", report.triggers);
    for label in ["threshold", "gromacs"] {
        let fire = report
            .triggers
            .iter()
            .find(|f| f.trigger.starts_with(&format!("when {label}.")))
            .unwrap_or_else(|| panic!("no {label} fire: {:?}", report.triggers));
        assert_eq!(fire.step, 0);
        assert!((0.0..=1.0).contains(&fire.value), "{fire:?}");
        assert!(fire.applied, "{fire:?}");
    }
}

/// The same flip as the seeded-spike regression, driven end to end from a
/// script: a `#@ trigger` line reaches the running workflow through
/// `Workflow::from_script_file`. The always-true threshold fires on the
/// first histogram step, so the mean publishes exactly one step.
#[test]
fn script_declared_trigger_flips_stride_end_to_end() {
    let path = script_file(
        "trigger",
        "#@ trigger when histogram.max > -1e300 then set_output_stride temporal-mean 1000\n\
         gromacs chains=4 len=4 steps=3 interval=2\n\
         magnitude gromacs.fp coords gmag.fp radii\n\
         temporal-mean gmag.fp radii 1 tm.fp smoothed rendezvous=1\n\
         histogram tm.fp smoothed 8\n",
    );
    let report = Workflow::from_script_file(&path)
        .unwrap_or_else(|e| panic!("{e}"))
        .run_with(RunOptions::new())
        .unwrap();

    assert_eq!(report.triggers.len(), 1, "{:?}", report.triggers);
    assert_eq!(report.triggers[0].step, 0);
    assert!(report.triggers[0].applied);
    assert_eq!(report.component("temporal-mean").unwrap().stats.steps, 3);
    assert_eq!(
        report.component("histogram").unwrap().stats.steps,
        1,
        "the first-step flip should decimate every later publish"
    );
}
