//! Composition behaviours: launch-order independence, DAG fan-out, file
//! decoupling, histogram chaining, and script-driven assembly —
//! everything the paper claims "out of the box".

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use sb_data::{lock, Buffer, Shape, Variable};
use smartblock::launch::SimCode;
use smartblock::prelude::*;
use smartblock::workflows::Simulation;

/// A deterministic 2-d test source: `n × props` with labelled columns.
fn labelled_source(step: u64, n: usize) -> Variable {
    let mut data = Vec::with_capacity(n * 4);
    for i in 0..n {
        data.push((i + 1) as f64); // ID
        data.push(((i + step as usize) % 3) as f64); // a
        data.push((i as f64 * 0.5) + step as f64); // b
        data.push(-(i as f64)); // c
    }
    Variable::new(
        "rows",
        Shape::of(&[("n", n), ("props", 4)]),
        Buffer::from(data),
    )
    .unwrap()
    .with_labels(1, &["ID", "a", "b", "c"])
    .unwrap()
}

#[test]
fn components_connect_regardless_of_add_order() {
    // Add the pipeline back-to-front; FlexPath-style blocking sorts it out.
    let collected: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_data = Arc::clone(&collected);
    let mut wf = Workflow::new();
    wf.add_sink("end", 1, "out.fp", move |_step, vars| {
        lock(&sink_data).extend(vars["picked"].data.to_f64_vec());
    });
    wf.add(
        2,
        Select::new(("in.fp", "rows"), 1, ["b"], ("out.fp", "picked")),
    );
    wf.add_source("start", 2, "in.fp", |step| {
        (step < 2).then(|| labelled_source(step, 6))
    });
    wf.run_with(RunOptions::default()).unwrap();
    let got = lock(&collected).clone();
    // Column b per step: i*0.5 + step for i in 0..6.
    let expect: Vec<f64> = (0..2u64)
        .flat_map(|s| (0..6).map(move |i| i as f64 * 0.5 + s as f64))
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn fork_feeds_identical_data_to_both_branches() {
    let a: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let b: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));

    let mut wf = Workflow::new();
    wf.add_source("gen", 2, "src.fp", |step| {
        (step < 3).then(|| labelled_source(step, 8))
    });
    wf.add(3, Fork::new("src.fp", ["left.fp", "right.fp"]));
    wf.add_sink("left", 1, "left.fp", move |_s, vars| {
        lock(&a2).extend(vars["rows"].data.to_f64_vec());
    });
    wf.add_sink("right", 2, "right.fp", move |_s, vars| {
        lock(&b2).extend(vars["rows"].data.to_f64_vec());
    });
    wf.run_with(RunOptions::default()).unwrap();
    let left = lock(&a).clone();
    let right = lock(&b).clone();
    assert_eq!(left.len(), 3 * 8 * 4);
    assert_eq!(left, right, "fork branches diverged");
}

#[test]
fn file_write_then_file_read_preserves_the_stream() {
    let path = std::env::temp_dir().join(format!("sb_decouple_{}.sbc", std::process::id()));

    // Phase 1: persist three steps.
    let mut phase1 = Workflow::new();
    phase1.add_source("gen", 2, "live.fp", |step| {
        (step < 3).then(|| labelled_source(step, 10))
    });
    phase1.add(1, FileWrite::new("live.fp", &path));
    phase1.run_with(RunOptions::default()).unwrap();

    // Phase 2: replay and verify content, labels and attrs survive.
    let collected: Arc<Mutex<Vec<(u64, Variable)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_data = Arc::clone(&collected);
    let mut phase2 = Workflow::new();
    phase2.add(3, FileRead::new(&path, "replay.fp"));
    phase2.add_sink("end", 1, "replay.fp", move |step, vars| {
        lock(&sink_data).push((step, vars["rows"].clone()));
    });
    phase2.run_with(RunOptions::default()).unwrap();

    let got = lock(&collected).clone();
    assert_eq!(got.len(), 3);
    for (step, var) in got {
        let expect = labelled_source(step, 10);
        assert_eq!(var.data, expect.data, "step {step}");
        assert_eq!(var.labels, expect.labels);
        assert_eq!(var.shape.sizes(), expect.shape.sizes());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn histogram_output_stream_chains_downstream() {
    let collected: Arc<Mutex<Vec<BTreeMap<String, Variable>>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_data = Arc::clone(&collected);
    let mut wf = Workflow::new();
    wf.add_source("gen", 1, "v.fp", |step| {
        (step < 2).then(|| {
            let data: Vec<f64> = (0..16).map(|i| (i + step as usize) as f64).collect();
            Variable::new("x", Shape::linear("n", 16), Buffer::from(data)).unwrap()
        })
    });
    wf.add(
        2,
        Histogram::new(("v.fp", "x"), 4).with_output_stream("h.fp"),
    );
    wf.add_sink("end", 1, "h.fp", move |_s, vars| {
        lock(&sink_data).push(vars.clone());
    });
    wf.run_with(RunOptions::default()).unwrap();

    let got = lock(&collected).clone();
    assert_eq!(got.len(), 2);
    for vars in &got {
        let counts = vars["counts"].data.to_f64_vec();
        assert_eq!(counts.iter().sum::<f64>(), 16.0);
        let edges = vars["bin_edges"].data.to_f64_vec();
        assert_eq!(edges.len(), 5);
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        // Attributes survive the stream hop.
        assert!(vars["counts"].attrs.contains_key("min"));
        assert!(vars["counts"].attrs.contains_key("max"));
    }
}

#[test]
fn rendezvous_mode_workflows_are_still_correct() {
    use sb_stream::WriterOptions;
    let scale = smartblock::workflows::PresetScale {
        sim_ranks: 2,
        analysis_ranks: vec![2, 1, 1, 1],
        io_steps: 2,
        substeps: 3,
        bins: 6,
        ..Default::default()
    }
    .size("slices", 8)
    .size("points", 8);
    let (mut wf, results) = smartblock::workflows::gtcp_workflow(&scale);
    for writer in ["gtcp", "select", "dim-reduce", "dim-reduce-2"] {
        wf.set_writer_options(writer, WriterOptions::rendezvous());
    }
    wf.run_with(RunOptions::default()).unwrap();
    let got = lock(&results).clone();
    assert_eq!(got.len(), 2);
    assert!(got.iter().all(|h| h.total() == 64));
}

#[test]
fn fig8_style_script_runs_end_to_end() {
    let script = r#"
        # LAMMPS velocity-histogram workflow, Fig. 8 grammar
        aprun -n 1 histogram velos.fp velocities 8 &
        aprun -n 2 magnitude lmpselect.fp lmpsel velos.fp velocities &
        aprun -n 2 select dump.custom.fp atoms 1 lmpselect.fp lmpsel vx vy vz &
        aprun -n 2 lammps nx=12 ny=12 steps=2 interval=4 &
        wait
    "#;
    let wf = WorkflowPlan::from_script(script)
        .unwrap()
        .workflow(StreamHub::new(), &[])
        .unwrap();
    let report = wf.run_with(RunOptions::default()).unwrap();
    assert_eq!(report.components.len(), 4);
    for c in &report.components {
        assert_eq!(c.stats.steps, 2, "{} steps", c.label);
    }
    // The sim stream carried data to the select.
    let dump = report
        .streams
        .iter()
        .find(|s| s.stream == "dump.custom.fp")
        .unwrap();
    assert!(dump.bytes_written > 0);
    assert_eq!(dump.steps_consumed, 2);
}

#[test]
fn simulation_component_params_control_problem_size() {
    let mut wf = Workflow::new();
    wf.add(
        2,
        Simulation::new(SimCode::Gtcp)
            .param("slices", 6)
            .param("points", 10)
            .param("steps", 1)
            .param("interval", 2),
    );
    let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    wf.add_sink("end", 1, "gtcp.fp", move |_s, vars| {
        lock(&seen2).push(vars["plasma"].shape.total_len());
    });
    wf.run_with(RunOptions::default()).unwrap();
    assert_eq!(lock(&seen).clone(), vec![6 * 10 * 7]);
}
