//! A DAG-shaped workflow via the Fork component (paper §VI future work).
//!
//! One GROMACS coordinate stream fans out to two independent analysis
//! branches:
//!
//! ```text
//!                    ┌─> magnitude ─> histogram   (spread of the atoms)
//! gromacs ─> fork ───┤
//!                    └─> threshold                (coordinate values beyond ±8)
//! ```
//!
//! Run with: `cargo run --release -p sb-examples --bin dag_fork`

use sb_data::lock;
use sb_examples::render_histogram;
use smartblock::launch::SimCode;
use smartblock::prelude::*;
use smartblock::workflows::Simulation;

/// Branch B's cut-off on a single coordinate value.
const FAR: f64 = 8.0;

fn main() {
    let mut wf = Workflow::new();
    wf.add(
        2,
        Simulation::new(SimCode::Gromacs)
            .param("chains", 24)
            .param("len", 12)
            .param("steps", 4)
            .param("interval", 25),
    );
    wf.add(2, Fork::new("gromacs.fp", ["branch-a.fp", "branch-b.fp"]));

    // Branch A: the paper's spread histogram.
    wf.add(
        2,
        Magnitude::new(("branch-a.fp", "coords"), ("radii.fp", "r")),
    );
    let hist = Histogram::new(("radii.fp", "r"), 12);
    let hist_results = hist.results_handle();
    wf.add(1, hist);

    // Branch B: the coordinate values beyond ±FAR; how many there are is
    // known only at run time.
    wf.add(
        2,
        Threshold::new(
            ("branch-b.fp", "coords"),
            Predicate::AbsGreaterThan(FAR),
            ("far.fp", "coords"),
        ),
    );
    wf.add_sink("print-far", 1, "far.fp", |step, vars| {
        let n = vars["coords"].shape.total_len();
        println!("threshold step {step}: {n} coordinate values with |x| > {FAR}");
    });

    let report = wf.run_with(RunOptions::default()).expect("workflow run");
    if let Some(last) = lock(&hist_results).last() {
        println!("\n{}", render_histogram("spread (branch A)", last));
    }
    println!(
        "DAG ran {} components in {:.3}s",
        report.components.len(),
        report.elapsed.as_secs_f64()
    );
}
