//! Two instances of one component type answer to their workflow labels:
//! a fault plan or a trigger keyed `histogram-2` reaches the second
//! Histogram only, never the first, and never nothing.

use std::time::{Duration, Instant};

use sb_data::{Buffer, Shape, Variable};
use smartblock::prelude::*;

const STEPS: u64 = 4;
/// The step whose input is constant: the first Histogram's max stays 1
/// while every value lands in its bin 0, so the second Histogram — which
/// bins the first one's counts — sees a max of 100.
const SPIKE: u64 = 2;

/// sim -> histogram -> histogram-2, the second Histogram binning the
/// first one's `counts`.
fn two_histograms() -> Workflow {
    let mut wf = Workflow::new();
    wf.add_source("sim", 1, "sim.fp", |step| {
        (step < STEPS).then(|| {
            let data: Vec<f64> = (0..100)
                .map(|i| if step == SPIKE { 1.0 } else { i as f64 / 100.0 })
                .collect();
            Variable::new("vals", Shape::linear("cells", 100), Buffer::from(data)).unwrap()
        })
    });
    wf.add(
        1,
        Histogram::new(("sim.fp", "vals"), 4).with_output_stream("h.fp"),
    );
    wf.add(1, Histogram::new(("h.fp", "counts"), 2));
    assert_eq!(wf.labels(), ["sim", "histogram", "histogram-2"]);
    wf
}

#[test]
fn a_fault_plan_reaches_the_second_instance_by_its_workflow_label() {
    let mut wf = two_histograms();
    wf.hub()
        .install_faults(FaultPlan::seeded(7).kill_at("histogram-2", 1));
    wf.set_fault_policy("histogram", FaultPolicy::degrade());
    wf.set_fault_policy("histogram-2", FaultPolicy::degrade());
    let start = Instant::now();
    let report = wf
        .run_with(RunOptions::new().with_hub_timeout(Duration::from_secs(60)))
        .unwrap();
    assert!(start.elapsed() < Duration::from_secs(30), "degrade hung");

    let first = report.component("histogram").unwrap();
    assert!(first.outcome.is_completed(), "{:?}", first.outcome);
    assert_eq!(first.stats.steps, STEPS);
    let second = report.component("histogram-2").unwrap();
    match &second.outcome {
        ComponentOutcome::Degraded {
            error: ComponentError::Injected { label, step: 1, .. },
        } => assert_eq!(label, "histogram-2"),
        other => panic!("histogram-2: {other:?}"),
    }
    assert_eq!(second.stats.steps, 1);
}

#[test]
fn signals_publish_under_the_workflow_label() {
    let mut wf = two_histograms();
    for component in ["histogram", "histogram-2"] {
        wf.add_trigger(Trigger::new(
            component,
            "max",
            TriggerOp::Gt,
            50.0,
            TriggerAction::RaiseFaultPolicy {
                target: component.into(),
                policy: FaultPolicy::degrade(),
            },
        ));
    }
    let report = wf.run_with(RunOptions::new()).unwrap();

    // Only the second Histogram's max ever exceeds 50, at the spike.
    assert_eq!(report.triggers.len(), 1, "{:?}", report.triggers);
    let fire = &report.triggers[0];
    assert!(fire.trigger.starts_with("when histogram-2.max"), "{fire:?}");
    assert_eq!((fire.step, fire.value), (SPIKE, 100.0));
    assert!(fire.applied, "{fire:?}");
}
