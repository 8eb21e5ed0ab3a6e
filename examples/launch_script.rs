//! Workflows from launch scripts — the paper's Fig. 8 deployment model.
//!
//! The whole point of SmartBlock is that workflows are assembled *without
//! recompilation*: a job script names components, process counts, and the
//! stream/array names that wire them together. This example parses an
//! `aprun`-style script (the GTCP pipeline of Fig. 6, written in the Fig. 8
//! grammar) and runs it.
//!
//! Run with: `cargo run --release -p sb-examples --bin launch_script`

use smartblock::prelude::*;

const SCRIPT: &str = r#"
# GTCP pressure-histogram workflow (paper Figs. 4 and 6), assembled purely
# from run-time arguments; the simulation's stream name comes from its
# ADIOS-style group config.
aprun -n 4 gtcp slices=16 points=32 steps=3 interval=15 &
aprun -n 3 select gtcp.fp plasma 2 psel.fp pperp P_perp &
aprun -n 2 dim-reduce psel.fp pperp 2 1 dr1.fp flat2 &
aprun -n 2 dim-reduce dr1.fp flat2 0 1 dr2.fp flat1 &
aprun -n 1 histogram dr2.fp flat1 20 /tmp/gtcp_pressure_hist.txt &
wait
"#;

fn main() {
    println!("launch script:\n{SCRIPT}");
    let plan = WorkflowPlan::from_script(SCRIPT).expect("script lowers to a plan");
    let workflow = plan
        .workflow(StreamHub::new(), &[])
        .expect("every component selected");
    println!("parsed components: {:?}", workflow.labels());

    let report = workflow
        .run_with(RunOptions::default())
        .expect("workflow run");

    println!("\nend-to-end time: {:.3}s", report.elapsed.as_secs_f64());
    for c in &report.components {
        println!(
            "  {:<14} ranks={:<2} steps={:<2} in={:>9}B out={:>9}B",
            c.label, c.nranks, c.stats.steps, c.stats.bytes_in, c.stats.bytes_out
        );
    }
    let text = std::fs::read_to_string("/tmp/gtcp_pressure_hist.txt").expect("histogram file");
    println!("\nhistogram file written by rank 0 of the endpoint component:");
    for line in text.lines().take(8) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", text.lines().count());
}
