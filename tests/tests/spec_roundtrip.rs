//! Round-trip guarantees of the declarative `.sbw` spec language: every
//! checked-in example launch script has a spec twin that lowers to an
//! equal plan, lints clean, and — run from the very same plan `sb-run`
//! uses — produces byte-identical histogram files on both the in-proc and
//! TCP backends. Plus the reactive-trigger regression: a
//! seeded histogram spike provably flips a TemporalMean's output stride
//! mid-run.

use std::path::Path;

use sb_data::{lock, Buffer, Shape, Variable};
use sb_stream::tcp::TcpBroker;
use sb_stream::StreamHub;
use smartblock::analysis::{lint_plan, LintConfig};
use smartblock::prelude::*;
use smartblock::{LaunchEntry, ScriptDirectives};

/// Every checked-in example script, by stem: `examples/scripts/<stem>.sb`
/// twins with `examples/specs/<stem>.sbw`.
const PAIRS: [&str; 4] = [
    "gromacs_spread",
    "gromacs_tcp",
    "gtcp_pressure",
    "lammps_velocity",
];

fn examples_dir() -> String {
    format!("{}/../examples", env!("CARGO_MANIFEST_DIR"))
}

fn read_example(rel: &str) -> String {
    let path = format!("{}/{rel}", examples_dir());
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn load_example(rel: &str) -> WorkflowPlan {
    let text = read_example(rel);
    WorkflowPlan::load(rel, &text).unwrap_or_else(|e| panic!("{rel}: {e:?}"))
}

/// Directive equality modulo source lines (a spec table and a `#@` line
/// necessarily sit at different line numbers).
fn policies(d: &ScriptDirectives) -> Vec<(String, FaultPolicy)> {
    d.policies
        .iter()
        .map(|p| (p.label.clone(), p.policy.clone()))
        .collect()
}

fn processes(d: &ScriptDirectives) -> Vec<(String, Vec<String>)> {
    d.processes
        .iter()
        .map(|p| (p.name.clone(), p.members.clone()))
        .collect()
}

/// Every `.sb` script and its `.sbw` twin lower — each through its own
/// front-end — to equal plans: same labels, ranks, programs,
/// per-component options, transport, policies, and process partition,
/// differing only in source lines.
#[test]
fn spec_twins_plan_identically_to_their_scripts() {
    for stem in PAIRS {
        let script = load_example(&format!("scripts/{stem}.sb"));
        let spec = load_example(&format!("specs/{stem}.sbw"));
        assert_eq!(script.components.len(), spec.components.len(), "{stem}");
        for (a, b) in script.components.iter().zip(&spec.components) {
            assert_eq!(a.label, b.label, "{stem}");
            // Ranks, program, and options: the whole entry but its line.
            let b_entry = LaunchEntry {
                line: a.entry.line,
                ..b.entry.clone()
            };
            assert_eq!(a.entry, b_entry, "{stem}: {}", a.label);
        }
        assert_eq!(
            script.directives.transport, spec.directives.transport,
            "{stem}"
        );
        assert_eq!(
            policies(&script.directives),
            policies(&spec.directives),
            "{stem}"
        );
        assert_eq!(
            processes(&script.directives),
            processes(&spec.directives),
            "{stem}"
        );
    }
}

/// The checked-in spec twins are lint-clean at default levels — warnings
/// included, so CI's `--deny-warnings` sweep over `examples/specs` stays
/// green.
#[test]
fn spec_twins_lint_clean_under_deny_warnings() {
    for stem in PAIRS {
        let rel = format!("specs/{stem}.sbw");
        let report = lint_plan(&rel, &load_example(&rel), &LintConfig::new());
        assert!(
            report.diagnostics.is_empty(),
            "{rel}:\n{}",
            report.render_text()
        );
    }
}

fn run_whole(plan: &WorkflowPlan) -> WorkflowReport {
    let wf = plan
        .workflow(StreamHub::new(), &[])
        .unwrap_or_else(|e| panic!("{e}"));
    wf.run_with(RunOptions::new()).unwrap()
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

/// Running a script and its spec twin writes byte-identical histogram
/// files, and both match the recorded goldens. One test covers all three
/// file-writing pairs because they share their `/tmp` endpoint paths with
/// nothing else — the spec twin must use the *same* argument vector as
/// the script to count as a twin.
#[test]
fn script_and_spec_runs_write_identical_histogram_files() {
    for (stem, file) in [
        ("gromacs_spread", "/tmp/gromacs_spread_hist.txt"),
        ("gtcp_pressure", "/tmp/gtcp_pressure_hist.txt"),
        ("lammps_velocity", "/tmp/lammps_velocity_hist.txt"),
    ] {
        run_whole(&load_example(&format!("scripts/{stem}.sb")));
        let from_script = std::fs::read(file).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(!from_script.is_empty(), "{stem}: script run wrote nothing");

        run_whole(&load_example(&format!("specs/{stem}.sbw")));
        let from_spec = std::fs::read(file).unwrap_or_else(|e| panic!("{file}: {e}"));

        assert_eq!(
            from_script, from_spec,
            "{stem}: spec run diverged from script run"
        );
        assert_matches_golden(stem, &from_spec);
    }
}

/// The gromacs_spread spec, split across two TCP-connected processes the
/// way `sb-run --serve`/`--connect` splits it, writes the same bytes the
/// single-process script run writes. Output paths are rewritten so this
/// test never races the in-proc comparison above on `/tmp`.
#[test]
fn spec_split_across_tcp_matches_the_in_proc_script_run() {
    const REF: &str = "/tmp/gromacs_spread_hist_ref.txt";
    const TCP: &str = "/tmp/gromacs_spread_hist_tcp.txt";
    let script_text =
        read_example("scripts/gromacs_spread.sb").replace("/tmp/gromacs_spread_hist.txt", REF);
    let spec_text =
        read_example("specs/gromacs_spread.sbw").replace("/tmp/gromacs_spread_hist.txt", TCP);
    let script = WorkflowPlan::load("gromacs_spread.sb", &script_text).unwrap();
    let spec = WorkflowPlan::load("gromacs_spread.sbw", &spec_text).unwrap();

    run_whole(&script);
    let reference = std::fs::read(REF).unwrap();
    assert!(!reference.is_empty());

    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    // "Process" A: the simulation, over its own TCP connection.
    let sim_spec = spec.clone();
    let sim_url = broker.url();
    let sim = std::thread::spawn(move || {
        let hub = StreamHub::connect(&sim_url).unwrap();
        let wf = sim_spec.workflow(hub, &["gromacs".to_string()]).unwrap();
        wf.run_with(RunOptions::new().with_validation(Validation::Skip))
            .expect("simulation side")
    });
    // "Process" B: the analysis chain, over another connection.
    let hub = StreamHub::connect(&broker.url()).unwrap();
    let wf = spec
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

/// The reactive-trigger regression the spec language exists for: a seeded
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
    let mut mean = TemporalMean::new(("sim.fp", "vals"), 1, ("tm.fp", "smoothed"));
    mean.writer_options = WriterOptions::rendezvous();
    wf.add(1, mean);
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
/// Threshold, or the simulation — which always linted clean — now fires,
/// once each.
#[test]
fn wait_ratio_trigger_fires_on_a_threshold_component() {
    let report = Workflow::from_spec_text(
        r#"
[workflow]
name = "wait-ratio-demo"

[[component]]
program = "gromacs"
args = ["chains=4", "len=4", "steps=3", "interval=2"]

[[component]]
program = "magnitude"
args = ["gromacs.fp", "coords", "gmag.fp", "radii"]

[[component]]
program = "threshold"
args = ["gmag.fp", "radii", "gt", "0.0", "hot.fp", "hot"]

[[component]]
program = "histogram"
args = ["hot.fp", "hot", "4"]

[[trigger]]
when = "threshold.wait_ratio >= 0"
then = "raise_fault_policy threshold degrade"

[[trigger]]
when = "gromacs.wait_ratio >= 0"
then = "raise_fault_policy gromacs degrade"
"#,
    )
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

/// The same flip, driven end-to-end from `.sbw` text: a `[[trigger]]`
/// clause declared in a spec reaches the running workflow through
/// `Workflow::from_spec_text`. The always-true threshold fires on the
/// first histogram step, so the mean publishes exactly one step.
#[test]
fn spec_declared_trigger_flips_stride_end_to_end() {
    let report = Workflow::from_spec_text(
        r#"
[workflow]
name = "trigger-demo"

[[component]]
program = "gromacs"
args = ["chains=4", "len=4", "steps=3", "interval=2"]

[[component]]
program = "magnitude"
args = ["gromacs.fp", "coords", "gmag.fp", "radii"]

[[component]]
program = "temporal-mean"
args = ["gmag.fp", "radii", "1", "tm.fp", "smoothed"]
rendezvous = true

[[component]]
program = "histogram"
args = ["tm.fp", "smoothed", "8"]

[[trigger]]
when = "histogram.max > -1e300"
then = "set_output_stride temporal-mean 1000"
"#,
    )
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
