//! The paper's GROMACS workflow (Fig. 7): atom coordinates streamed from a
//! bead-spring molecular dynamics run are collapsed to distances-from-
//! origin and histogrammed, "showing an evolution of the spread of the
//! particles throughout the simulation".
//!
//! The example prints the mean radius per timestep so the spread is
//! visible at a glance.
//!
//! Run with: `cargo run --release -p sb-examples --bin gromacs_spread`

use sb_data::lock;
use sb_examples::render_histogram;
use smartblock::prelude::*;
use smartblock::workflows::{gromacs_workflow, PresetScale};

fn main() {
    let scale = PresetScale {
        sim_ranks: 4,
        analysis_ranks: vec![3, 1],
        io_steps: 5,
        substeps: 40,
        bins: 14,
        ..PresetScale::default()
    }
    .size("chains", 48)
    .size("len", 16);

    println!("assembling: gromacs -> magnitude -> histogram");
    let (workflow, results) = gromacs_workflow(&scale);
    let report = workflow
        .run_with(RunOptions::default())
        .expect("workflow run");

    println!("spread of the atom cloud over time:");
    for r in lock(&results).iter() {
        // Mean radius from the histogram itself: bin centers x counts.
        let total = r.total().max(1) as f64;
        let mean: f64 = r
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let (lo, hi) = r.bin_range(i);
                (lo + hi) / 2.0 * c as f64
            })
            .sum::<f64>()
            / total;
        println!("  step {}: mean |x| = {mean:.4}", r.step);
    }
    if let Some(last) = lock(&results).last() {
        println!("\n{}", render_histogram("final spread", last));
    }
    println!("end-to-end time: {:.3}s", report.elapsed.as_secs_f64());
}
