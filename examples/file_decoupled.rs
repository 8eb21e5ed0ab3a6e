//! Storage-decoupled workflows (paper §VI future work): breaking the
//! "all components run simultaneously" dependency with file endpoints.
//!
//! Phase 1 runs the simulation alone and drains its stream to a container
//! file. Phase 2 — which could run hours later, on different resources —
//! replays the file as a stream and runs the analysis pipeline on it. The
//! analysis components are *unchanged*: they cannot tell a replayed stream
//! from a live one.
//!
//! Run with: `cargo run --release -p sb-examples --bin file_decoupled`

use sb_data::lock;
use sb_examples::render_histogram;
use smartblock::launch::SimCode;
use smartblock::prelude::*;
use smartblock::workflows::Simulation;

fn main() {
    let container = std::env::temp_dir().join("lammps_crack_steps.sbc");

    // ---- Phase 1: simulate now, persist the stream -------------------------
    println!("phase 1: lammps -> file-write {container:?}");
    let mut phase1 = Workflow::new();
    phase1.add(
        4,
        Simulation::new(SimCode::Lammps)
            .param("nx", 32)
            .param("ny", 32)
            .param("steps", 3)
            .param("interval", 10),
    );
    phase1.add(1, FileWrite::new("dump.custom.fp", &container));
    let r1 = phase1.run_with(RunOptions::default()).expect("phase 1");
    println!(
        "  persisted {} steps in {:.3}s\n",
        r1.component("file-write").unwrap().stats.steps,
        r1.elapsed.as_secs_f64()
    );

    // ---- Phase 2: analyze later, replaying the file as a stream ------------
    println!("phase 2: file-read -> select -> magnitude -> histogram");
    let mut phase2 = Workflow::new();
    phase2.add(2, FileRead::new(&container, "replay.fp"));
    phase2.add(
        2,
        Select::new(
            ("replay.fp", "atoms"),
            1,
            ["vx", "vy", "vz"],
            ("sel.fp", "vel"),
        ),
    );
    phase2.add(2, Magnitude::new(("sel.fp", "vel"), ("mag.fp", "speed")));
    let hist = Histogram::new(("mag.fp", "speed"), 16);
    let results = hist.results_handle();
    phase2.add(1, hist);
    let r2 = phase2.run_with(RunOptions::default()).expect("phase 2");

    for r in lock(&results).iter() {
        println!("\n{}", render_histogram("replayed velocity magnitudes", r));
    }
    println!("phase 2 time: {:.3}s", r2.elapsed.as_secs_f64());
    std::fs::remove_file(&container).ok();
}
