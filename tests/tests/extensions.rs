//! Extension-component behaviours: Reduce, Threshold, Transpose, and
//! multi-subscriber (reader-group) DAGs — the capabilities beyond the
//! paper's four components.

use std::sync::{Arc, Mutex};

use sb_data::{lock, Buffer, Shape, Variable};
use sb_stream::WriterOptions;
use smartblock::launch::SimCode;
use smartblock::prelude::*;
use smartblock::workflows::Simulation;

fn cube_source(step: u64) -> Variable {
    // 2 x 3 x 4, element = linear index + step.
    let data: Vec<f64> = (0..24).map(|i| (i as u64 + step) as f64).collect();
    Variable::new(
        "t",
        Shape::of(&[("a", 2), ("b", 3), ("c", 4)]),
        Buffer::from(data),
    )
    .unwrap()
}

fn collect_array(
    wf: &mut Workflow,
    stream: &str,
    array: &'static str,
) -> Arc<Mutex<Vec<Vec<f64>>>> {
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
fn reduce_component_collapses_an_axis_across_ranks() {
    let mut wf = Workflow::new();
    wf.add_source("gen", 2, "cube.fp", |step| {
        (step < 2).then(|| cube_source(step))
    });
    wf.add(
        3,
        Reduce::new(("cube.fp", "t"), 2, ReduceOp::Sum, ("sums.fp", "s")),
    );
    let got = collect_array(&mut wf, "sums.fp", "s");
    wf.run_with(RunOptions::default()).unwrap();

    let got = lock(&got).clone();
    assert_eq!(got.len(), 2);
    for (step, values) in got.iter().enumerate() {
        // 2x3 sums of 4-element rows.
        assert_eq!(values.len(), 6);
        for (row, v) in values.iter().enumerate() {
            let base = row * 4;
            let expect: f64 = (base..base + 4)
                .map(|i| (i as u64 + step as u64) as f64)
                .sum();
            assert_eq!(*v, expect, "step {step} row {row}");
        }
    }
}

#[test]
fn reduce_component_produces_scalar_for_1d_input() {
    let mut wf = Workflow::new();
    wf.add_source("gen", 1, "v.fp", |step| {
        (step < 1).then(|| {
            Variable::new(
                "x",
                Shape::linear("n", 10),
                Buffer::F64((1..=10).map(f64::from).collect()),
            )
            .unwrap()
        })
    });
    wf.add(
        3,
        Reduce::new(("v.fp", "x"), 0, ReduceOp::Mean, ("m.fp", "mean")),
    );
    let got = collect_array(&mut wf, "m.fp", "mean");
    wf.run_with(RunOptions::default()).unwrap();
    assert_eq!(lock(&got).clone(), vec![vec![5.5]]);
}

#[test]
fn threshold_component_filters_with_global_indices() {
    let mut wf = Workflow::new();
    wf.add_source("gen", 2, "v.fp", |step| {
        (step < 1).then(|| {
            // 12 values: only multiples of 3 exceed 8 -> 9, 10, 11 pass.
            let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
            Variable::new("x", Shape::linear("n", 12), Buffer::from(data)).unwrap()
        })
    });
    wf.add(
        3,
        Threshold::new(
            ("v.fp", "x"),
            Predicate::GreaterThan(8.0),
            ("kept.fp", "big"),
        ),
    );
    let values: Arc<Mutex<Vec<Vec<f64>>>> = Arc::new(Mutex::new(Vec::new()));
    let indices: Arc<Mutex<Vec<Vec<f64>>>> = Arc::new(Mutex::new(Vec::new()));
    let (v2, i2) = (Arc::clone(&values), Arc::clone(&indices));
    wf.add_sink("end", 1, "kept.fp", move |_s, vars| {
        lock(&v2).push(vars["big"].data.to_f64_vec());
        lock(&i2).push(vars["big_indices"].data.to_f64_vec());
    });
    wf.run_with(RunOptions::default()).unwrap();
    assert_eq!(lock(&values).clone(), vec![vec![9.0, 10.0, 11.0]]);
    assert_eq!(lock(&indices).clone(), vec![vec![9.0, 10.0, 11.0]]);
}

#[test]
fn threshold_handles_empty_result_sets() {
    let mut wf = Workflow::new();
    wf.add_source("gen", 1, "v.fp", |step| {
        (step < 2)
            .then(|| Variable::new("x", Shape::linear("n", 4), Buffer::F64(vec![1.0; 4])).unwrap())
    });
    wf.add(
        2,
        Threshold::new(
            ("v.fp", "x"),
            Predicate::GreaterThan(100.0),
            ("kept.fp", "none"),
        ),
    );
    let got = collect_array(&mut wf, "kept.fp", "none");
    wf.run_with(RunOptions::default()).unwrap();
    assert_eq!(lock(&got).clone(), vec![Vec::<f64>::new(), Vec::new()]);
}

#[test]
fn transpose_component_reorders_axes_across_ranks() {
    let mut wf = Workflow::new();
    wf.add_source("gen", 2, "cube.fp", |step| {
        (step < 1).then(|| cube_source(step))
    });
    // Output dims: (c, a, b).
    wf.add(
        2,
        Transpose::new(("cube.fp", "t"), vec![2, 0, 1], ("tp.fp", "t")),
    );
    let collected: Arc<Mutex<Vec<Variable>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&collected);
    wf.add_sink("end", 1, "tp.fp", move |_s, vars| {
        lock(&sink).push(vars["t"].clone());
    });
    wf.run_with(RunOptions::default()).unwrap();

    let got = lock(&collected).clone();
    assert_eq!(got.len(), 1);
    let t = &got[0];
    assert_eq!(t.shape.sizes(), vec![4, 2, 3]);
    assert_eq!(t.shape.dim_name(0), "c");
    let source = cube_source(0);
    for a in 0..2 {
        for b in 0..3 {
            for c in 0..4 {
                assert_eq!(t.get(&[c, a, b]), source.get(&[a, b, c]));
            }
        }
    }
}

#[test]
fn two_components_subscribe_to_one_simulation_stream() {
    // The reader-group DAG: no Fork, no duplication — the GROMACS stream
    // feeds both the Magnitude branch and the Stats branch directly.
    let mut wf = Workflow::new();
    wf.add(
        2,
        Simulation::new(SimCode::Gromacs)
            .param("chains", 12)
            .param("len", 8)
            .param("steps", 3)
            .param("interval", 5)
            .with_writer_options(WriterOptions::default().with_reader_groups(2)),
    );
    wf.add(
        2,
        Magnitude::new(("gromacs.fp", "coords"), ("radii.fp", "r")).with_reader_group("mag"),
    );
    wf.add(
        2,
        Stats::new(("gromacs.fp", "coords"), ("summary.fp", "s")).with_reader_group("stats"),
    );
    let hist = Histogram::new(("radii.fp", "r"), 8);
    let hist_results = hist.results_handle();
    wf.add(1, hist);
    let stats_out = collect_array(&mut wf, "summary.fp", "s");
    let report = wf.run_with(RunOptions::default()).unwrap();

    assert_eq!(lock(&hist_results).len(), 3);
    let stats_rows = lock(&stats_out).clone();
    assert_eq!(stats_rows.len(), 3);
    for row in &stats_rows {
        assert_eq!(row[4] as usize, 12 * 8 * 3, "count = atoms x coords");
        assert!(row[0] <= row[2] && row[2] <= row[1], "min <= mean <= max");
    }
    // Both branches consumed all steps of the same stream.
    let sim_stream = report
        .streams
        .iter()
        .find(|s| s.stream == "gromacs.fp")
        .unwrap();
    assert_eq!(sim_stream.steps_committed, 3);
    assert_eq!(sim_stream.steps_consumed, 3);
    // Bytes were read twice (once per branch).
    assert!(sim_stream.bytes_read >= 2 * sim_stream.bytes_written);
}

#[test]
fn extension_components_work_from_launch_scripts() {
    let script = r#"
        aprun -n 2 gtcp slices=8 points=12 steps=2 interval=3 &
        aprun -n 2 transpose gtcp.fp plasma 1,0,2 tp.fp plasma_t &
        aprun -n 2 reduce tp.fp plasma_t 2 mean rm.fp means &
        aprun -n 1 threshold rm.fp means gt 0.9 th.fp hot &
        wait
    "#;
    let wf = WorkflowPlan::from_script(script)
        .unwrap()
        .workflow(StreamHub::new(), &[])
        .unwrap();
    assert_eq!(
        wf.labels(),
        vec!["gtcp", "transpose", "reduce", "threshold"]
    );
    let report = wf.run_with(RunOptions::default()).unwrap();
    for c in &report.components {
        assert_eq!(c.stats.steps, 2, "{}", c.label);
    }
    // The threshold output stream exists and carried both arrays.
    let th = report.streams.iter().find(|s| s.stream == "th.fp").unwrap();
    assert_eq!(th.steps_committed, 2);
}

#[test]
fn deep_pipeline_with_varied_ranks_stays_correct() {
    // A seven-stage chain mixing every transform kind, each at a different
    // rank count — the paper's "any number of components in any order"
    // claim under stress.
    use sb_data::{Shape, Variable};
    let mut wf = Workflow::new();
    wf.add_source("gen", 3, "s0.fp", |step| {
        (step < 4).then(|| {
            let data: Vec<f64> = (0..2 * 6 * 4).map(|i| (i as u64 + step) as f64).collect();
            Variable::new(
                "t",
                Shape::of(&[("a", 2), ("b", 6), ("c", 4)]),
                Buffer::from(data),
            )
            .unwrap()
            .with_labels(2, &["w", "x", "y", "z"])
            .unwrap()
        })
    });
    wf.add(
        2,
        Select::new(("s0.fp", "t"), 2, ["x", "z"], ("s1.fp", "t")),
    );
    wf.add(
        4,
        Transpose::new(("s1.fp", "t"), vec![1, 0, 2], ("s2.fp", "t")),
    );
    wf.add(3, DimReduce::new(("s2.fp", "t"), 0, 1, ("s3.fp", "t")));
    wf.add(
        2,
        Reduce::new(("s3.fp", "t"), 1, ReduceOp::Mean, ("s4.fp", "t")),
    );
    wf.add(2, TemporalMean::new(("s4.fp", "t"), 2, ("s5.fp", "t")));
    let hist = Histogram::new(("s5.fp", "t"), 4);
    let results = hist.results_handle();
    wf.add(1, hist);
    assert!(wf.validate().is_empty());
    wf.run_with(RunOptions::default()).unwrap();

    let got = lock(&results).clone();
    assert_eq!(got.len(), 4);
    // Shape bookkeeping: select -> [2,6,2]; transpose(1,0,2) -> [6,2,2];
    // dim-reduce(0 into 1) -> [12,2]; reduce(mean over dim 1) -> [12];
    // histogram bins 12 values per step.
    assert!(got.iter().all(|h| h.total() == 12), "{got:?}");

    // Value check for step 0, element 0 of the final vector: the pipeline
    // is deterministic, so compute the same thing serially.
    let serial = {
        let data: Vec<f64> = (0..48).map(|i| i as f64).collect();
        let v = Variable::new(
            "t",
            Shape::of(&[("a", 2), ("b", 6), ("c", 4)]),
            Buffer::from(data),
        )
        .unwrap()
        .with_labels(2, &["w", "x", "y", "z"])
        .unwrap();
        let v = smartblock::select::select_rows(&v, 2, &[1, 3]).unwrap();
        let v = smartblock::transpose::permute_axes(&v, &[1, 0, 2]).unwrap();
        let v = smartblock::dim_reduce::dim_reduce(&v, 0, 1).unwrap();
        smartblock::reduce::reduce_axis(&v, 1, ReduceOp::Mean).unwrap()
    };
    // TemporalMean at step 0 is the identity, so histogram 0's range must
    // match the serial vector's range.
    let lo = serial
        .data
        .to_f64_vec()
        .iter()
        .cloned()
        .fold(f64::MAX, f64::min);
    let hi = serial
        .data
        .to_f64_vec()
        .iter()
        .cloned()
        .fold(f64::MIN, f64::max);
    assert!((got[0].min - lo).abs() < 1e-12);
    assert!((got[0].max - hi).abs() < 1e-12);
}
