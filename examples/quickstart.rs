//! Quickstart: the paper's LAMMPS workflow (Fig. 5) in ~20 lines.
//!
//! A mini-LAMMPS crack simulation streams `particles × {ID, Type, vx, vy,
//! vz}`; Select keeps the velocity columns by *name*, Magnitude collapses
//! them to speeds, Histogram prints the per-timestep velocity distribution.
//!
//! Run with: `cargo run --release -p sb-examples --bin quickstart`

use sb_data::lock;
use sb_examples::render_histogram;
use smartblock::prelude::*;
use smartblock::workflows::{lammps_workflow, PresetScale};

fn main() {
    let scale = PresetScale {
        sim_ranks: 4,
        analysis_ranks: vec![2, 2, 1],
        io_steps: 4,
        substeps: 10,
        bins: 16,
        ..PresetScale::default()
    }
    .size("nx", 48)
    .size("ny", 48);

    println!("assembling: lammps -> select(vx,vy,vz) -> magnitude -> histogram");
    let (workflow, results) = lammps_workflow(&scale);
    println!("components: {:?}", workflow.labels());

    let report = workflow
        .run_with(RunOptions::default())
        .expect("workflow run");

    for r in lock(&results).iter() {
        println!("\n{}", render_histogram("velocity magnitudes", r));
    }

    println!("{}", report.summary());
}
