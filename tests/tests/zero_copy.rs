//! End-to-end checks of the zero-copy data plane: a workflow's payload
//! stream must be served without copies in the 1-writer/whole-read case,
//! and the three paper workflows must keep producing byte-identical
//! histograms on top of it.

use std::path::Path;

use sb_data::{lock, Buffer, Shape, Variable};
use smartblock::prelude::*;
use smartblock::workflows::{gromacs_workflow, gtcp_workflow, lammps_workflow, PresetScale};

#[test]
fn whole_read_workflow_step_copies_nothing() {
    // One source rank puts a whole variable per step; one sink rank reads
    // it whole. Every get on the payload path must hit the exact-cover
    // fast path: the counters in the workflow report prove it.
    let mut wf = Workflow::new();
    wf.add_source("gen", 1, "raw.fp", |step| {
        (step < 4).then(|| {
            let data: Vec<f64> = (0..64).map(|i| (i as u64 * 10 + step) as f64).collect();
            Variable::new(
                "x",
                Shape::of(&[("rows", 8), ("cols", 8)]),
                Buffer::from(data),
            )
            .unwrap()
        })
    });
    wf.add_sink("check", 1, "raw.fp", |step, vars| {
        assert_eq!(vars["x"].get(&[0, 0]), step as f64);
        assert_eq!(vars["x"].get(&[7, 7]), (63 * 10 + step as usize) as f64);
    });
    let report = wf.run_with(RunOptions::default()).unwrap();

    let m = report
        .streams
        .iter()
        .find(|s| s.stream == "raw.fp")
        .expect("payload stream missing from the report");
    assert!(
        m.copies_elided > 0,
        "no whole-read hit the exact-cover fast path: {m:?}"
    );
    assert_eq!(
        m.bytes_copied, 0,
        "payload bytes were copied on a 1-writer/whole-read stream: {m:?}"
    );
    assert_eq!(m.bytes_read, 4 * 64 * 8);
}

fn scale() -> PresetScale {
    PresetScale {
        io_steps: 3,
        substeps: 3,
        bins: 12,
        ..PresetScale::default()
    }
}

fn render(results: &[smartblock::HistogramResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&format!(
            "step {} min {:.17e} max {:.17e} counts {:?}\n",
            r.step, r.min, r.max, r.counts
        ));
    }
    out
}

fn assert_matches_golden(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{name}_histogram.txt"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden file {path:?}: {e}"));
    assert_eq!(
        rendered, golden,
        "{name} histogram output diverged from the recorded golden at {path:?}"
    );
}

/// The paper workflows' full-precision histogram trajectories, locked
/// against goldens recorded before the zero-copy data plane landed: the
/// transport rework may not change a single bit of analysis output.
#[test]
fn paper_workflow_histograms_match_pre_zero_copy_goldens() {
    let (wf, results) = lammps_workflow(&scale());
    wf.run_with(RunOptions::default()).unwrap();
    assert_matches_golden("lammps", &render(&lock(&results)));

    let (wf, results) = gtcp_workflow(&scale());
    wf.run_with(RunOptions::default()).unwrap();
    assert_matches_golden("gtcp", &render(&lock(&results)));

    let (wf, results) = gromacs_workflow(&scale());
    wf.run_with(RunOptions::default()).unwrap();
    assert_matches_golden("gromacs", &render(&lock(&results)));
}
