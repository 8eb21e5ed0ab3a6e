//! Combine (two-input join) and TemporalMean (cross-step state) behaviours
//! inside real workflows.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use sb_data::{lock, Buffer, Shape, Variable};
use smartblock::prelude::*;

fn linear_source(step: u64, n: usize, scale: f64) -> Variable {
    let data: Vec<f64> = (0..n).map(|i| (i as f64 + step as f64) * scale).collect();
    Variable::new("x", Shape::linear("n", n), Buffer::from(data)).unwrap()
}

/// A 0-d variable holding `value`.
fn scalar(value: f64) -> Variable {
    Variable::new("x", Shape::new(Vec::new()), Buffer::F64(vec![value])).unwrap()
}

fn collect(wf: &mut Workflow, stream: &str, array: &'static str) -> Arc<Mutex<Vec<Vec<f64>>>> {
    let out: Arc<Mutex<Vec<Vec<f64>>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&out);
    wf.add_sink(
        format!("collect-{array}"),
        1,
        stream.to_string(),
        move |_s, vars| {
            lock(&sink).push(vars[array].data.to_f64_vec());
        },
    );
    out
}

#[test]
fn combine_adds_two_different_streams() {
    let mut wf = Workflow::new();
    wf.add_source("gen-a", 2, "a.fp", |step| {
        (step < 3).then(|| linear_source(step, 8, 1.0))
    });
    wf.add_source("gen-b", 1, "b.fp", |step| {
        (step < 3).then(|| linear_source(step, 8, 10.0))
    });
    wf.add(
        2,
        Combine::new(("a.fp", "x"), BinaryOp::Add, ("b.fp", "x"), ("sum.fp", "s")),
    );
    let got = collect(&mut wf, "sum.fp", "s");
    assert!(wf.validate().is_empty());
    wf.run_with(RunOptions::default()).unwrap();

    let got = lock(&got).clone();
    assert_eq!(got.len(), 3);
    for (step, values) in got.iter().enumerate() {
        for (i, v) in values.iter().enumerate() {
            let expect = (i as f64 + step as f64) * 11.0;
            assert_eq!(*v, expect, "step {step} elem {i}");
        }
    }
}

#[test]
fn combine_joins_two_arrays_of_the_same_stream() {
    // Two variables on ONE stream: Combine opens two reader groups on it
    // (`combine`, `combine#1`), and the workflow counts both for the
    // producer; neither side declares anything.
    use sb_data::VariableMeta;
    use sb_stream::WriterOptions;

    struct TwoVarSource;
    impl Component for TwoVarSource {
        fn label(&self) -> String {
            "two-var".into()
        }
        fn output_streams(&self) -> Vec<String> {
            vec!["pair.fp".into()]
        }
        fn run(
            &self,
            comm: &sb_comm::Communicator,
            hub: &Arc<sb_stream::StreamHub>,
        ) -> smartblock::ComponentResult {
            let mut w = hub.open_writer(
                "pair.fp",
                comm.rank(),
                comm.size(),
                WriterOptions::default(),
            );
            let mut stats = smartblock::ComponentStats::default();
            for step in 0..2u64 {
                let a = linear_source(step, 6, 1.0);
                let mut b = linear_source(step, 6, 2.0);
                b.name = "y".into();
                w.begin_step().unwrap();
                w.put(sb_data::Chunk::whole(a));
                let meta = VariableMeta {
                    name: "y".into(),
                    shape: b.shape.clone(),
                    dtype: b.data.dtype(),
                    labels: b.labels.clone(),
                    attrs: b.attrs.clone(),
                };
                w.put(sb_data::Chunk::new(meta, sb_data::Region::whole(&b.shape), b.data).unwrap());
                w.end_step().unwrap();
                stats.steps += 1;
            }
            w.close();
            Ok(stats)
        }
    }

    let mut wf = Workflow::new();
    wf.add(1, TwoVarSource);
    wf.add(
        2,
        Combine::new(
            ("pair.fp", "x"),
            BinaryOp::Mul,
            ("pair.fp", "y"),
            ("prod.fp", "p"),
        ),
    );
    let got = collect(&mut wf, "prod.fp", "p");
    wf.run_with(RunOptions::default()).unwrap();

    let got = lock(&got).clone();
    assert_eq!(got.len(), 2);
    for (step, values) in got.iter().enumerate() {
        for (i, v) in values.iter().enumerate() {
            let base = i as f64 + step as f64;
            assert_eq!(*v, base * (base * 2.0), "step {step} elem {i}");
        }
    }
}

#[test]
fn combine_handles_unequal_stream_lengths() {
    // Left ends after 2 steps, right would go to 4: Combine emits 2 and
    // drains the rest so the longer producer can finish.
    let mut wf = Workflow::new();
    wf.add_source("gen-a", 1, "a.fp", |step| {
        (step < 2).then(|| linear_source(step, 4, 1.0))
    });
    wf.add_source("gen-b", 1, "b.fp", |step| {
        (step < 4).then(|| linear_source(step, 4, 1.0))
    });
    wf.add(
        1,
        Combine::new(
            ("a.fp", "x"),
            BinaryOp::Sub,
            ("b.fp", "x"),
            ("d.fp", "diff"),
        ),
    );
    let got = collect(&mut wf, "d.fp", "diff");
    wf.run_with(RunOptions::default()).unwrap();
    let got = lock(&got).clone();
    assert_eq!(got.len(), 2);
    assert!(got.iter().all(|v| v.iter().all(|&x| x == 0.0)));
}

#[test]
fn temporal_mean_smooths_over_the_window() {
    let mut wf = Workflow::new();
    // Constant spatial field whose amplitude steps 0, 1, 2, 3, 4.
    wf.add_source("gen", 2, "v.fp", |step| {
        (step < 5).then(|| {
            Variable::new(
                "x",
                Shape::linear("n", 6),
                Buffer::F64(vec![step as f64; 6]),
            )
            .unwrap()
        })
    });
    wf.add(3, TemporalMean::new(("v.fp", "x"), 3, ("smooth.fp", "m")));
    let got = collect(&mut wf, "smooth.fp", "m");
    assert!(wf.validate().is_empty());
    wf.run_with(RunOptions::default()).unwrap();

    let got = lock(&got).clone();
    assert_eq!(got.len(), 5);
    // Means: 0, (0+1)/2, (0+1+2)/3, (1+2+3)/3, (2+3+4)/3.
    let expect = [0.0, 0.5, 1.0, 2.0, 3.0];
    for (step, values) in got.iter().enumerate() {
        assert!(
            values.iter().all(|&v| (v - expect[step]).abs() < 1e-12),
            "step {step}: {values:?} != {}",
            expect[step]
        );
    }
}

/// The means a TemporalMean (window 2) at `nranks` ranks publishes over a
/// scalar stream carrying 1, 2, 4, 8.
fn scalar_temporal_means(nranks: usize) -> Vec<Vec<f64>> {
    let mut wf = Workflow::with_hub(StreamHub::with_timeout(Duration::from_secs(5)));
    wf.add_source("gen", 1, "v.fp", |step| {
        (step < 4).then(|| scalar(f64::from(1u32 << step)))
    });
    wf.add(
        nranks,
        TemporalMean::new(("v.fp", "x"), 2, ("smooth.fp", "m")),
    );
    let got = collect(&mut wf, "smooth.fp", "m");
    wf.run_with(RunOptions::default()).unwrap();
    let got = lock(&got).clone();
    got
}

#[test]
fn temporal_mean_over_a_scalar_at_two_ranks_writes_one_chunk() {
    // A scalar cannot be split: rank 0 reads and writes it, rank 1 reads
    // nothing, so the sink never meets two overlapping chunks.
    let one = scalar_temporal_means(1);
    assert_eq!(one, vec![vec![1.0], vec![1.5], vec![3.0], vec![6.0]]);
    assert_eq!(scalar_temporal_means(2), one);
}

#[test]
fn combine_of_two_scalars_at_two_ranks_writes_one_chunk() {
    let mut wf = Workflow::with_hub(StreamHub::with_timeout(Duration::from_secs(5)));
    wf.add_source("gen-a", 1, "a.fp", |step| (step < 2).then(|| scalar(3.0)));
    wf.add_source("gen-b", 1, "b.fp", |step| {
        (step < 2).then(|| scalar(step as f64))
    });
    wf.add(
        2,
        Combine::new(("a.fp", "x"), BinaryOp::Mul, ("b.fp", "x"), ("p.fp", "p")),
    );
    let got = collect(&mut wf, "p.fp", "p");
    wf.run_with(RunOptions::default()).unwrap();
    assert_eq!(lock(&got).clone(), vec![vec![0.0], vec![3.0]]);
}

#[test]
fn temporal_mean_state_is_per_rank_partition() {
    // Different ranks hold different partitions; the smoothed output must
    // still be spatially correct (value = global index + step mean).
    let mut wf = Workflow::new();
    wf.add_source("gen", 1, "v.fp", |step| {
        (step < 4).then(|| linear_source(step, 9, 1.0))
    });
    wf.add(3, TemporalMean::new(("v.fp", "x"), 2, ("smooth.fp", "m")));
    let got = collect(&mut wf, "smooth.fp", "m");
    wf.run_with(RunOptions::default()).unwrap();
    let got = lock(&got).clone();
    // Step 3: mean of steps 2 and 3 -> i + 2.5.
    let last = &got[3];
    for (i, v) in last.iter().enumerate() {
        assert_eq!(*v, i as f64 + 2.5);
    }
}

/// A join DAG from a launch script: magnitude's `r.fp` feeds both
/// temporal-mean and combine, each under its own label.
const JOIN_SCRIPT: &str = r#"
    aprun -n 2 gromacs chains=6 len=6 steps=3 interval=4 &
    aprun -n 2 magnitude gromacs.fp coords r.fp radii &
    aprun -n 2 temporal-mean r.fp radii 2 rs.fp radii_smooth &
    aprun -n 1 combine r.fp radii sub rs.fp radii_smooth dev.fp deviation &
    aprun -n 1 threshold dev.fp deviation abs-gt 0 th.fp drift &
    wait
"#;

#[test]
fn joins_work_from_launch_scripts() {
    let wf = WorkflowPlan::from_script(JOIN_SCRIPT)
        .unwrap()
        .workflow(StreamHub::new(), &[])
        .unwrap();
    assert_eq!(
        wf.labels(),
        vec![
            "gromacs",
            "magnitude",
            "temporal-mean",
            "combine",
            "threshold"
        ]
    );
    // The script's one flaw is that th.fp has no consumer: temporal-mean
    // and combine each read r.fp under their own label.
    let issues = wf.validate();
    assert_eq!(issues.len(), 1, "{issues:?}");
    assert!(matches!(
        &issues[0],
        smartblock::AnalysisIssue::Wiring(smartblock::WiringIssue::NoReader { stream, .. })
            if stream == "th.fp"
    ));
    assert_eq!(issues[0].lint().id, "SB002");
}

#[test]
fn script_options_assemble_and_run_a_dag() {
    // The script above with the threshold output consumed by a sink we
    // attach programmatically: magnitude's writer keeps each step until
    // both of r.fp's subscribers have it, with nothing declared.
    let plan = WorkflowPlan::from_script(JOIN_SCRIPT).unwrap();
    let mut wf = plan.workflow(StreamHub::new(), &[]).unwrap();
    let drifts = collect(&mut wf, "th.fp", "drift_indices");
    let issues = wf.validate();
    assert!(issues.is_empty(), "{issues:?}");
    wf.run_with(RunOptions::default()).unwrap();

    let got = lock(&drifts).clone();
    assert_eq!(got.len(), 3);
    // Deviation of the smoothed signal is 0 on step 0 (window holds one
    // step), so nothing drifts; thereafter every atom moves, and the
    // indices cover every atom.
    assert!(got[0].is_empty(), "step-0 deviation must be zero");
    let every_atom: Vec<f64> = (0..36).map(f64::from).collect();
    assert_eq!(got[1..], [every_atom.clone(), every_atom]);
}
