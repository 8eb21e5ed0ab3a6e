//! Extension-component behaviours: Threshold's data-dependent output,
//! multi-subscriber (reader-group) DAGs, and chains of the §VI components
//! from launch scripts — the capabilities beyond the paper's four
//! components.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use sb_data::{lock, Buffer, Shape, Variable};
use smartblock::launch::SimCode;
use smartblock::prelude::*;
use smartblock::workflows::Simulation;

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
fn a_scalar_threshold_counts_its_survivor_once() {
    // Only rank 0 reads a scalar; the other rank keeps nothing.
    let mut wf = Workflow::with_hub(StreamHub::with_timeout(Duration::from_secs(5)));
    wf.add_source("gen", 1, "v.fp", |step| {
        (step < 1)
            .then(|| Variable::new("x", Shape::new(Vec::new()), Buffer::F64(vec![5.0])).unwrap())
    });
    wf.add(
        2,
        Threshold::new(
            ("v.fp", "x"),
            Predicate::GreaterThan(0.0),
            ("kept.fp", "big"),
        ),
    );
    // Values, then indices, per step.
    let kept: Arc<Mutex<Vec<Vec<f64>>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&kept);
    wf.add_sink("end", 1, "kept.fp", move |_s, vars| {
        let arrays = ["big", "big_indices"].map(|name| vars[name].data.to_f64_vec());
        lock(&sink).extend(arrays);
    });
    wf.run_with(RunOptions::default()).unwrap();
    assert_eq!(lock(&kept).clone(), vec![vec![5.0], vec![0.0]]);
}

#[test]
fn threshold_offsets_each_ranks_survivors_by_exscan() {
    // Every Threshold rank keeps one value, so each rank's slice of the
    // output starts where the exclusive scan of the counts before it ends.
    let mut wf = Workflow::new();
    wf.add_source("gen", 2, "v.fp", |step| {
        (step < 1).then(|| {
            let data: Vec<f64> = (0..12).map(|i| (i % 4) as f64).collect();
            Variable::new("x", Shape::linear("n", 12), Buffer::from(data)).unwrap()
        })
    });
    wf.add(
        3,
        Threshold::new(
            ("v.fp", "x"),
            Predicate::GreaterThan(2.0),
            ("kept.fp", "top"),
        ),
    );
    let kept = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&kept);
    wf.add_sink("end", 1, "kept.fp", move |_s, vars| {
        lock(&sink).push((
            vars["top"].data.to_f64_vec(),
            vars["top_indices"].data.to_f64_vec(),
        ));
    });
    wf.run_with(RunOptions::default()).unwrap();
    assert_eq!(
        lock(&kept).clone(),
        vec![(vec![3.0; 3], vec![3.0, 7.0, 11.0])]
    );
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
fn two_components_subscribe_to_one_simulation_stream() {
    // The reader-group DAG: no Fork, no duplication — the GROMACS stream
    // feeds two Magnitude → Histogram branches directly, each Magnitude in
    // the reader group its label names; the workflow counts both.
    let mut wf = Workflow::new();
    wf.add(
        2,
        Simulation::new(SimCode::Gromacs)
            .param("chains", 12)
            .param("len", 8)
            .param("steps", 3)
            .param("interval", 5),
    );
    wf.add(
        2,
        Magnitude::new(("gromacs.fp", "coords"), ("radii.fp", "r")),
    );
    wf.add(
        3,
        Magnitude::new(("gromacs.fp", "coords"), ("radii2.fp", "r")),
    );
    let hist = Histogram::new(("radii.fp", "r"), 8);
    let hist_results = hist.results_handle();
    wf.add(1, hist);
    let second = Histogram::new(("radii2.fp", "r"), 8);
    let second_results = second.results_handle();
    wf.add(2, second);
    let report = wf.run_with(RunOptions::default()).unwrap();

    let first = lock(&hist_results).clone();
    let second = lock(&second_results).clone();
    assert_eq!(first.len(), 3);
    for h in &first {
        assert_eq!(h.total() as usize, 12 * 8, "count = atoms");
        assert!(h.min <= h.max, "min <= max");
    }
    // Both branches read the same steps, whatever their rank counts.
    assert_eq!(second, first);
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
    // Every §VI stream component from one script: Fork copies the plasma,
    // TemporalMean smooths one copy, Combine subtracts it from the other,
    // and Threshold keeps the large deviations.
    let script = r#"
        aprun -n 2 gtcp slices=8 points=12 steps=2 interval=3 &
        aprun -n 1 fork gtcp.fp raw.fp avg.fp &
        aprun -n 2 temporal-mean avg.fp plasma 2 tm.fp smooth &
        aprun -n 2 combine raw.fp plasma sub tm.fp smooth dev.fp deviation &
        aprun -n 1 threshold dev.fp deviation abs-gt 0.01 th.fp hot &
        wait
    "#;
    let wf = WorkflowPlan::from_script(script)
        .unwrap()
        .workflow(StreamHub::new(), &[])
        .unwrap();
    assert_eq!(
        wf.labels(),
        vec!["gtcp", "fork", "temporal-mean", "combine", "threshold"]
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
    // A six-stage chain mixing every transform kind, each at a different
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
    // Absorbing b into a permutes memory: b follows a in row-major order.
    wf.add(4, DimReduce::new(("s1.fp", "t"), 1, 0, ("s2.fp", "t")));
    wf.add(3, Magnitude::new(("s2.fp", "t"), ("s3.fp", "t")));
    wf.add(2, TemporalMean::new(("s3.fp", "t"), 2, ("s4.fp", "t")));
    let hist = Histogram::new(("s4.fp", "t"), 4);
    let results = hist.results_handle();
    wf.add(1, hist);
    assert!(wf.validate().is_empty());
    wf.run_with(RunOptions::default()).unwrap();

    let got = lock(&results).clone();
    assert_eq!(got.len(), 4);
    // Shape bookkeeping: select -> [2,6,2]; dim-reduce(1 into 0) -> [12,2];
    // magnitude -> [12]; histogram bins 12 values per step.
    assert!(got.iter().all(|h| h.total() == 12), "{got:?}");

    // Value check for step 0 of the final vector: the pipeline is
    // deterministic, so compute the same thing serially.
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
        let v = smartblock::dim_reduce::dim_reduce(&v, 1, 0).unwrap();
        smartblock::magnitude::vector_magnitudes(&v).unwrap()
    };
    // TemporalMean at step 0 is the identity, so histogram 0's range must
    // match the serial vector's range.
    let lo = serial.iter().cloned().fold(f64::MAX, f64::min);
    let hi = serial.iter().cloned().fold(f64::MIN, f64::max);
    assert!((got[0].min - lo).abs() < 1e-12);
    assert!((got[0].max - hi).abs() < 1e-12);
}
