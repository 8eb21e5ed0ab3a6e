//! The step timeline end to end: a traced LAMMPS pipeline produces one
//! nested span tree per `(component, rank, step)`, supervisor decisions
//! (fault → restart, stall → degrade) land on the timeline at the injected
//! step, and — the accounting fix the timeline made visible — a restarted
//! run reports the same byte totals as a clean one.

use std::time::Duration;

use sb_integration_tests::chaos_seed;
use smartblock::prelude::*;
use smartblock::workflows::{lammps_workflow, PresetScale};
use smartblock::TraceEvent;

fn traced(options: RunOptions) -> RunOptions {
    options.with_tracing(TraceConfig::new())
}

/// gen -> magnitude -> collect, the failure_modes chaos pipeline.
fn chaos_pipeline(steps: u64) -> Workflow {
    let mut wf = Workflow::new();
    wf.add_source("gen", 1, "c.fp", move |step| {
        (step < steps).then(|| {
            let data: Vec<f64> = (0..8 * 3).map(|i| i as f64 + step as f64).collect();
            sb_data::Variable::new(
                "coords",
                sb_data::Shape::of(&[("n", 8), ("d", 3)]),
                sb_data::Buffer::F64(data),
            )
            .unwrap()
        })
    });
    wf.add(1, Magnitude::new(("c.fp", "coords"), ("r.fp", "radii")));
    wf.add_sink("collect", 1, "r.fp", |_s, _vars| {});
    wf
}

fn spans_at<'a>(
    tl: &'a Timeline,
    kind: EventKind,
    component: &str,
    rank: u32,
    step: u64,
) -> Vec<&'a TraceEvent> {
    tl.events
        .iter()
        .filter(|e| e.kind == kind && e.component == component && e.rank == rank && e.step == step)
        .collect()
}

/// The paper's LAMMPS pipeline, traced: every component has exactly one
/// `step` span per (rank, timestep), with its phase spans (`wait`,
/// `compute`, `publish` as the component's role requires) nested inside.
#[test]
fn lammps_timeline_nests_phase_spans_inside_each_step() {
    let scale = PresetScale {
        sim_ranks: 4,
        analysis_ranks: vec![2, 2, 1],
        io_steps: 3,
        substeps: 2,
        ..PresetScale::default()
    }
    .size("nx", 8)
    .size("ny", 8);
    let (wf, _results) = lammps_workflow(&scale);
    let report = wf.run_with(traced(RunOptions::default())).unwrap();
    let tl = &report.timeline;
    assert!(!tl.is_empty(), "tracing was enabled; timeline must record");
    assert_eq!(tl.dropped, 0, "this run is far below the ring capacity");
    // The sim runs on the same loop, so its per-step laps are recorded too.
    let sim = &report.component("lammps").unwrap().stats;
    assert_eq!(sim.step_times.len() as u64, scale.io_steps);

    for comp in &report.components {
        // Sources (the sim) never wait on input; sinks never publish.
        let reads = comp.label != "lammps";
        let writes = comp.label != "histogram";
        for rank in 0..comp.nranks as u32 {
            for step in 0..comp.stats.steps {
                let steps = spans_at(tl, EventKind::Step, &comp.label, rank, step);
                assert_eq!(
                    steps.len(),
                    1,
                    "{}/{rank} step {step}: one step span per timestep per rank",
                    comp.label
                );
                let outer = steps[0];
                let mut phases = vec![EventKind::Compute];
                if reads {
                    phases.push(EventKind::Wait);
                }
                if writes {
                    phases.push(EventKind::Publish);
                }
                for kind in phases {
                    let inner = spans_at(tl, kind, &comp.label, rank, step);
                    assert!(
                        !inner.is_empty(),
                        "{}/{rank} step {step}: missing {} span",
                        comp.label,
                        kind.name()
                    );
                    for e in inner {
                        assert!(
                            e.start >= outer.start && e.end() <= outer.end(),
                            "{}/{rank} step {step}: {} [{:?}..{:?}] outside its step \
                             [{:?}..{:?}]",
                            comp.label,
                            kind.name(),
                            e.start,
                            e.end(),
                            outer.start,
                            outer.end()
                        );
                    }
                }
            }
        }
    }

    // The export round-trips through the same identifier CI validates.
    let json = tl.chrome_trace_json();
    assert!(json.contains("\"schema\":\"smartblock.trace.v1\""));
}

/// No component is invisible. One traced DAG wires the five components
/// that used to run their own step loops, plus a Histogram publishing on an
/// output stream; each must carry the complete `step` ⊇ `wait` / `compute`
/// / `publish` spans (through a stride-2 TemporalMean's skipped publishes
/// too) and publish a `wait_ratio` signal.
///
/// ```text
/// file-read -> fork -+-> threshold ------------------------------> hot
///                    +-> combine(b + c) -> temporal-mean -> histogram -> bins
/// ```
#[test]
fn formerly_hand_rolled_components_are_on_the_timeline() {
    const STEPS: u64 = 6;
    let path = std::env::temp_dir().join(format!("sb_trace_dag_{}.sbc", std::process::id()));
    {
        let file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        let mut container = sb_data::container::ContainerWriter::new(file).unwrap();
        for step in 0..STEPS {
            let data: Vec<f64> = (0..16).map(|i| (i as f64 + step as f64) / 16.0).collect();
            let vals = sb_data::Variable::new(
                "vals",
                sb_data::Shape::linear("cells", 16),
                sb_data::Buffer::F64(data),
            )
            .unwrap();
            container.write_step(step, &[vals]).unwrap();
        }
        use std::io::Write;
        container.finish().unwrap().flush().unwrap();
    }

    let mut wf = Workflow::new();
    wf.add(1, FileRead::new(&path, "replay.fp"));
    wf.add(2, Fork::new("replay.fp", ["a.fp", "b.fp", "c.fp"]));
    wf.add(
        2,
        Threshold::new(
            ("a.fp", "vals"),
            Predicate::GreaterThan(0.5),
            ("hot.fp", "hot"),
        ),
    );
    wf.add_sink("hot", 1, "hot.fp", |_, _| {});
    wf.add(
        2,
        Combine::new(
            ("b.fp", "vals"),
            BinaryOp::Add,
            ("c.fp", "vals"),
            ("sum.fp", "sum"),
        ),
    );
    wf.add(
        1,
        TemporalMean::new(("sum.fp", "sum"), 2, ("tm.fp", "smoothed")).with_stride(2),
    );
    wf.add(
        1,
        Histogram::new(("tm.fp", "smoothed"), 4).with_output_stream("bins.fp"),
    );
    wf.add_sink("bins", 1, "bins.fp", |_, _| {});
    let formerly_hand_rolled = ["file-read", "fork", "threshold", "combine", "temporal-mean"];
    for label in formerly_hand_rolled {
        wf.add_trigger(Trigger::new(
            label,
            "wait_ratio",
            TriggerOp::Ge,
            0.0,
            TriggerAction::RaiseFaultPolicy {
                target: label.into(),
                policy: FaultPolicy::abort(),
            },
        ));
    }

    let report = wf.run_with(traced(RunOptions::default())).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(report.timeline.dropped, 0);
    for label in formerly_hand_rolled {
        assert_eq!(
            report.component(label).unwrap().stats.steps,
            STEPS,
            "{label}"
        );
    }
    // Stride 2: the mean published every second step.
    assert_eq!(
        report.component("histogram").unwrap().stats.steps,
        STEPS / 2
    );
    report
        .validate_completeness()
        .unwrap_or_else(|e| panic!("timeline incomplete: {e}"));

    assert_eq!(report.triggers.len(), 5, "{:?}", report.triggers);
    for label in formerly_hand_rolled {
        let clause = format!("when {label}.wait_ratio");
        assert!(
            report
                .triggers
                .iter()
                .any(|f| f.trigger.starts_with(&clause)),
            "{label} published no wait_ratio: {:?}",
            report.triggers
        );
    }
}

/// A seeded kill under a Restart policy stamps the timeline: the injected
/// fault instant sits at the faulted step with the kill code, and the
/// supervisor's restart attempt follows it.
#[test]
fn injected_kill_and_restart_land_on_the_timeline() {
    let mut wf = chaos_pipeline(4);
    wf.hub()
        .install_faults(FaultPlan::seeded(chaos_seed()).kill_at("magnitude", 1));
    wf.set_fault_policy(
        "magnitude",
        FaultPolicy::restart(2).with_backoff(Duration::from_millis(5)),
    );
    let report = wf.run_with(traced(RunOptions::default())).unwrap();
    assert_eq!(report.component("magnitude").unwrap().restarts(), 1);

    let tl = &report.timeline;
    let faults: Vec<_> = tl.of_kind(EventKind::FaultInjected).collect();
    assert_eq!(faults.len(), 1, "{faults:?}");
    assert_eq!(faults[0].component, "magnitude");
    assert_eq!(faults[0].step, 1, "fault was injected at step 1");
    assert_eq!(faults[0].arg, 1, "arg 1 encodes a kill fault");

    let restarts: Vec<_> = tl.of_kind(EventKind::RestartAttempt).collect();
    assert_eq!(restarts.len(), 1, "{restarts:?}");
    assert_eq!(restarts[0].component, "magnitude");
    assert_eq!(restarts[0].arg, 2, "arg is the upcoming attempt number");
    assert!(
        restarts[0].start >= faults[0].start,
        "the restart follows the fault"
    );
}

/// A stalled source degrades its starving consumer; the supervisor's
/// degrade decision is an event on the timeline.
#[test]
fn degrade_decision_lands_on_the_timeline() {
    let mut wf = chaos_pipeline(4);
    wf.hub()
        .install_faults(FaultPlan::seeded(chaos_seed()).stall_at("gen", 1));
    wf.set_fault_policy("magnitude", FaultPolicy::degrade());
    wf.set_fault_policy("collect", FaultPolicy::degrade());
    let report = wf
        .run_with(traced(
            RunOptions::new().with_hub_timeout(Duration::from_millis(300)),
        ))
        .unwrap();
    assert!(report.degraded().contains(&"magnitude"));
    let degraded: Vec<_> = report.timeline.of_kind(EventKind::Degraded).collect();
    assert!(
        degraded.iter().any(|e| e.component == "magnitude"),
        "{degraded:?}"
    );
}

/// The supervision accounting fix: a component that was killed and
/// restarted must report the union of all its attempts' work, so its byte
/// and step totals match a clean run of the same seeded pipeline exactly.
#[test]
fn restarted_run_reports_the_same_totals_as_a_clean_run() {
    let golden = chaos_pipeline(4).run_with(RunOptions::default()).unwrap();
    let golden_mag = golden.component("magnitude").unwrap();
    assert_eq!(golden_mag.stats.steps, 4);

    let mut wf = chaos_pipeline(4);
    wf.hub()
        .install_faults(FaultPlan::seeded(chaos_seed()).kill_at("magnitude", 1));
    wf.set_fault_policy(
        "magnitude",
        FaultPolicy::restart(2).with_backoff(Duration::from_millis(5)),
    );
    let report = wf.run_with(RunOptions::default()).unwrap();
    let mag = report.component("magnitude").unwrap();
    assert_eq!(mag.restarts(), 1, "{:?}", mag.outcome);
    assert_eq!(
        mag.stats.bytes_out, golden_mag.stats.bytes_out,
        "restarted bytes_out must match the clean run"
    );
    assert_eq!(
        mag.stats.bytes_in, golden_mag.stats.bytes_in,
        "restarted bytes_in must match the clean run"
    );
    assert_eq!(
        mag.stats.steps, golden_mag.stats.steps,
        "released steps are not re-produced"
    );
    // The whole pipeline's stream totals agree too.
    for (a, b) in report.streams.iter().zip(golden.streams.iter()) {
        assert_eq!(a.stream, b.stream);
        assert_eq!(
            a.bytes_written, b.bytes_written,
            "{}: restarted run rewrote or lost data",
            a.stream
        );
    }
}
