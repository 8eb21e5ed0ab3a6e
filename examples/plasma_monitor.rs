//! A richer analysis DAG built entirely from generic components, using the
//! extension library (TemporalMean, Threshold) and multi-subscriber
//! streams — no Fork, no data duplication:
//!
//! ```text
//!                      ┌──> temporal-mean(2 steps) ─────────────────────┐
//! gtcp ── gtcp.fp ─────┤                                                ├─> printed
//!                      └──> select(P_perp) ─> 2x dim-reduce
//!                           ─> threshold(hot cells) ────────────────────┘
//! ```
//!
//! Each branch reads `gtcp.fp` in the reader group its workflow label
//! names, and the workflow tells the simulation's writer that two groups
//! subscribe, so neither branch can miss a step.
//!
//! Branch 1 smooths every plasma property over the last two steps, state
//! the component carries across steps. Branch 2 reproduces the paper's
//! flattening pipeline but ends in a Threshold that reports which grid
//! cells exceed a pressure alarm level, with their global indices.
//!
//! Run with: `cargo run --release -p sb-examples --bin plasma_monitor`

use smartblock::launch::SimCode;
use smartblock::prelude::*;
use smartblock::workflows::Simulation;

fn main() {
    let mut wf = Workflow::new();
    wf.add(
        3,
        Simulation::new(SimCode::Gtcp)
            .param("slices", 16)
            .param("points", 24)
            .param("steps", 3)
            .param("interval", 10),
    );

    // Branch 1: the running two-step mean of the whole plasma array.
    wf.add(
        2,
        TemporalMean::new(("gtcp.fp", "plasma"), 2, ("trend.fp", "plasma")),
    );
    wf.add_sink("print-trend", 1, "trend.fp", |step, vars| {
        let v = &vars["plasma"];
        // Property 5 is P_perp (see sb_sims::gtcp::GTCP_PROPERTIES).
        let props = v.shape.size(2);
        let pperp: Vec<f64> = v
            .data
            .to_f64_vec()
            .into_iter()
            .skip(5)
            .step_by(props)
            .collect();
        let lo = pperp.iter().cloned().fold(f64::MAX, f64::min);
        let hi = pperp.iter().cloned().fold(f64::MIN, f64::max);
        println!("step {step}: two-step mean P_perp in [{lo:.4}, {hi:.4}]");
    });

    // Branch 2: the paper's flattening pipeline ending in an alarm filter.
    wf.add(
        2,
        Select::new(("gtcp.fp", "plasma"), 2, ["P_perp"], ("psel.fp", "pperp")),
    );
    wf.add(
        2,
        DimReduce::new(("psel.fp", "pperp"), 2, 1, ("dr1.fp", "f2")),
    );
    wf.add(2, DimReduce::new(("dr1.fp", "f2"), 0, 1, ("dr2.fp", "f1")));
    wf.add(
        2,
        Threshold::new(
            ("dr2.fp", "f1"),
            Predicate::GreaterThan(1.15),
            ("hot.fp", "cells"),
        ),
    );
    wf.add_sink("print-alarms", 1, "hot.fp", |step, vars| {
        let n = vars["cells"].shape.total_len();
        let first: Vec<u64> = vars["cells_indices"]
            .data
            .to_f64_vec()
            .iter()
            .take(5)
            .map(|&x| x as u64)
            .collect();
        println!("step {step}: {n} grid cells above the pressure alarm (first: {first:?})");
    });

    // Static wiring check before spending any compute.
    let issues = wf.validate();
    assert!(issues.is_empty(), "wiring problems: {issues:?}");

    let report = wf.run_with(RunOptions::default()).expect("workflow run");
    println!(
        "\nmonitor DAG: {} components, {} streams, {:.3}s end to end",
        report.components.len(),
        report.streams.len(),
        report.elapsed.as_secs_f64()
    );
}
