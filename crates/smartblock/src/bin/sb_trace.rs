//! Records a preset workflow's step timeline and exports it: a text
//! waterfall plus per-phase latency histograms on stdout, and a Chrome
//! trace-event JSON file (Perfetto / `chrome://tracing` loadable) on disk.
//!
//! The emitted JSON is validated before the process exits: a string-level
//! schema check mirroring `schemas/smartblock.trace.v1.json`, and a
//! completeness check that every `(component, rank, step)` of the run has
//! its phase spans on the timeline. CI runs `--smoke` so a regression in
//! either the instrumentation or the exporter fails the build.
//!
//! Run with: `cargo run --release -p smartblock --bin sb-trace`
//! Options: `--preset lammps|gtcp|gromacs` (default `lammps`),
//! `--sim-ranks N`, `--steps N`, `--out PATH` (default `TRACE_<preset>.json`),
//! `--smoke` (tiny problem sizes), `--check PATH` (validate an existing
//! export instead of running a workflow).

use std::sync::{Arc, Mutex};

use smartblock::workflows::{gromacs_workflow, gtcp_workflow, lammps_workflow, PresetScale};
use smartblock::{HistogramResult, RunOptions, TraceConfig, Workflow};

/// A preset workflow builder, and the handle to its per-step histograms.
type Preset = fn(&PresetScale) -> (Workflow, Arc<Mutex<Vec<HistogramResult>>>);

fn fail(msg: &str) -> ! {
    eprintln!("sb-trace: {msg}");
    std::process::exit(1);
}

/// String-level schema check on the emitted JSON, mirroring the checked-in
/// `schemas/smartblock.trace.v1.json` without a JSON dependency: the
/// header keys appear exactly once, the schema identifier matches, and
/// every event carries the required `ph`/`pid`/`tid`/`name` fields.
fn validate_export(text: &str) -> Result<(), String> {
    for key in ["\"traceEvents\"", "\"displayTimeUnit\"", "\"otherData\""] {
        if text.matches(key).count() != 1 {
            return Err(format!("header key {key} missing or repeated"));
        }
    }
    if !text.contains("\"schema\":\"smartblock.trace.v1\"") {
        return Err("schema identifier smartblock.trace.v1 missing".into());
    }
    if !text.contains("\"dropped_events\":") {
        return Err("otherData.dropped_events missing".into());
    }
    let events = text.matches("{\"ph\":\"").count();
    if events == 0 {
        return Err("no trace events in export".into());
    }
    let metadata = text.matches("{\"ph\":\"M\"").count();
    let spans = text.matches("{\"ph\":\"X\"").count();
    let instants = text.matches("{\"ph\":\"i\"").count();
    if metadata + spans + instants != events {
        return Err(format!(
            "{events} events but only {metadata} M + {spans} X + {instants} i phases"
        ));
    }
    if metadata == 0 || spans == 0 {
        return Err(format!(
            "want process_name metadata and span events, got {metadata} M / {spans} X"
        ));
    }
    for (key, want) in [
        ("\"pid\":", events),
        ("\"tid\":", events),
        // Metadata events carry `name` twice: the event name
        // ("process_name") and the process label in args.
        ("\"name\":", events + metadata),
        ("\"ts\":", spans + instants),
        ("\"dur\":", spans),
        ("\"s\":\"t\"", instants),
    ] {
        let n = text.matches(key).count();
        if n != want {
            return Err(format!("key {key} appears {n} times, want {want}"));
        }
    }
    Ok(())
}

fn main() {
    let mut preset = String::from("lammps");
    let mut sim_ranks = 4usize;
    let mut steps = 4u64;
    let mut out_path: Option<String> = None;
    let mut smoke = false;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--preset" => preset = args.next().unwrap_or_else(|| fail("--preset needs a name")),
            "--sim-ranks" => {
                sim_ranks = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--sim-ranks needs an integer"))
            }
            "--steps" => {
                steps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--steps needs an integer"))
            }
            "--out" => out_path = Some(args.next().unwrap_or_else(|| fail("--out needs a path"))),
            "--smoke" => smoke = true,
            "--check" => check = Some(args.next().unwrap_or_else(|| fail("--check needs a path"))),
            other => fail(&format!(
                "unknown argument {other:?} (options: --preset NAME, --sim-ranks N, \
                 --steps N, --out PATH, --smoke, --check PATH)"
            )),
        }
    }

    if let Some(path) = check {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        match validate_export(&text) {
            Ok(()) => {
                println!("{path}: valid smartblock.trace.v1 export");
                return;
            }
            Err(e) => fail(&format!("{path}: {e}")),
        }
    }

    let (build, smoke_sizes): (Preset, [(&str, usize); 2]) = match preset.as_str() {
        "lammps" => (lammps_workflow, [("nx", 8), ("ny", 8)]),
        "gtcp" => (gtcp_workflow, [("slices", 6), ("points", 8)]),
        "gromacs" => (gromacs_workflow, [("chains", 4), ("len", 8)]),
        other => fail(&format!("unknown preset {other:?} (lammps|gtcp|gromacs)")),
    };
    let mut scale = PresetScale {
        sim_ranks,
        io_steps: steps,
        ..PresetScale::default()
    };
    if smoke {
        scale.substeps = 2;
        for (key, value) in smoke_sizes {
            scale = scale.size(key, value);
        }
    }
    let (workflow, _results) = build(&scale);
    eprintln!(
        "tracing {preset} preset: {} sim ranks, {steps} steps",
        scale.sim_ranks
    );
    let report = workflow
        .run_with(RunOptions::default().with_tracing(TraceConfig::new()))
        .unwrap_or_else(|e| fail(&format!("workflow failed: {e}")));

    println!("{}", report.timeline.waterfall());
    println!("phase latency histograms (log2-bucketed):");
    for h in report.timeline.latency_histograms() {
        println!("  {}", h.render());
    }

    if let Err(e) = report.validate_completeness() {
        fail(&format!("timeline incomplete: {e}"));
    }

    let out_path = out_path.unwrap_or_else(|| format!("TRACE_{preset}.json"));
    let text = report.timeline.chrome_trace_json();
    std::fs::write(&out_path, &text)
        .unwrap_or_else(|e| fail(&format!("cannot write {out_path}: {e}")));
    let reread = std::fs::read_to_string(&out_path).expect("re-read emitted JSON");
    if let Err(e) = validate_export(&reread) {
        fail(&format!("emitted JSON failed schema validation: {e}"));
    }
    println!(
        "\nwrote {out_path} ({} events, {} dropped) — load it in Perfetto or chrome://tracing",
        report.timeline.len(),
        report.timeline.dropped
    );
}
