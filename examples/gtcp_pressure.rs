//! The paper's GTCP workflow (Fig. 6): a toroidal plasma simulation whose
//! 3-d output — `toroidal slices × grid points × 7 properties` — is
//! reduced, by name, to a histogram of the perpendicular pressure over the
//! whole torus.
//!
//! The pipeline needs *two* Dim-Reduce instances because Histogram expects
//! 1-d data: `[T, G, 1] → [T, G] → [T·G]` (§III-F of the paper).
//!
//! Run with: `cargo run --release -p sb-examples --bin gtcp_pressure`
//!
//! Set `SB_TRACE=1` to record the step timeline: the run then prints a
//! text waterfall of where each component's time went and writes
//! `TRACE_gtcp_pressure.json` for Perfetto / `chrome://tracing`.

use sb_data::lock;
use sb_examples::render_histogram;
use smartblock::prelude::*;
use smartblock::workflows::{gtcp_workflow, PresetScale};

fn main() {
    let scale = PresetScale {
        sim_ranks: 4,
        analysis_ranks: vec![3, 2, 2, 1],
        io_steps: 3,
        substeps: 20,
        bins: 20,
        ..PresetScale::default()
    }
    .size("slices", 24)
    .size("points", 48);

    println!("assembling: gtcp -> select(P_perp) -> dim-reduce -> dim-reduce -> histogram");
    let (workflow, results) = gtcp_workflow(&scale);
    println!("components: {:?}", workflow.labels());

    let report = workflow
        .run_with(RunOptions::default())
        .expect("workflow run");

    for r in lock(&results).iter() {
        println!("\n{}", render_histogram("perpendicular pressure", r));
    }

    println!("end-to-end time: {:.3}s", report.elapsed.as_secs_f64());
    println!("streams:");
    for s in &report.streams {
        println!(
            "  {:<12} steps={} written={}B read={}B",
            s.stream, s.steps_committed, s.bytes_written, s.bytes_read
        );
    }

    // With SB_TRACE=1 the runtime records the step timeline; show the
    // terminal waterfall and drop the Chrome-trace export next to the cwd.
    if !report.timeline.is_empty() {
        println!("\n{}", report.timeline.waterfall());
        let path = "TRACE_gtcp_pressure.json";
        std::fs::write(path, report.timeline.chrome_trace_json()).expect("write trace JSON");
        println!("wrote {path} — load it in Perfetto or chrome://tracing");
    }
}
