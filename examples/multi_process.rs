//! Multi-process deployment: the GROMACS workflow (Fig. 7) split across two
//! OS processes connected by the TCP transport backend.
//!
//! The parent process serves a [`TcpBroker`] and runs the simulation on the
//! broker's own hub; it then re-launches *itself* with `--role analysis` as
//! a genuinely separate OS process, which connects to `tcp://…` and runs
//! Magnitude → Histogram. The two processes share nothing but the broker
//! URL — the same name-based rendezvous as the in-proc hub, across a
//! process boundary.
//!
//! Run with: `cargo run --release -p sb-examples --bin multi_process`
//!
//! The equivalent two-terminal deployment with `sb-run` (see the README):
//!
//! ```text
//! terminal 1:  sb-run --script wf.sb --serve 127.0.0.1:7654 --components gromacs
//! terminal 2:  sb-run --script wf.sb --connect tcp://127.0.0.1:7654 \
//!                     --components magnitude,histogram
//! ```

use std::process::Command;
use std::sync::Arc;

use sb_data::lock;
use sb_examples::render_histogram;
use sb_stream::tcp::TcpBroker;
use smartblock::prelude::*;

const SCRIPT: &str = r#"
    aprun -n 2 gromacs chains=6 len=5 steps=4 interval=5 &
    aprun -n 2 magnitude gromacs.fp coords gmag.fp radii &
    aprun -n 1 histogram gmag.fp radii 12 &
    wait
"#;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--role") {
        analysis_process();
        return;
    }

    let plan = WorkflowPlan::from_script(SCRIPT).expect("script lowers to a plan");
    let mut broker = TcpBroker::bind("127.0.0.1:0").expect("bind broker");
    println!("parent: serving {}", broker.url());

    // The analysis side: this same binary, as a real child OS process.
    let mut child = Command::new(std::env::current_exe().expect("own path"))
        .args(["--role", "analysis", "--url", &broker.url()])
        .spawn()
        .expect("spawn analysis process");

    // The simulation side, on the broker's own in-proc hub.
    // This process sees only its slice of the wiring, so static validation
    // is skipped (lint the full script with sb-lint instead).
    let hub = Arc::clone(broker.hub());
    let report = plan
        .workflow(hub, &["gromacs".to_string()])
        .expect("gromacs is planned")
        .run_with(RunOptions::new().with_validation(Validation::Skip))
        .expect("simulation side");
    println!(
        "parent: gromacs produced {} steps",
        report
            .component("gromacs")
            .expect("gromacs ran")
            .stats
            .steps
    );

    let status = child.wait().expect("await analysis process");
    assert!(status.success(), "analysis process failed: {status}");
    broker.shutdown();
    println!("parent: done");
}

fn analysis_process() {
    let args: Vec<String> = std::env::args().collect();
    let url = args
        .iter()
        .position(|a| a == "--url")
        .and_then(|i| args.get(i + 1))
        .expect("--url tcp://host:port");
    let plan = WorkflowPlan::from_script(SCRIPT).expect("script lowers to a plan");
    let hub = StreamHub::connect(url).expect("connect to broker");
    println!("child:  connected to {url} (backend {})", hub.backend());

    // The plan supplies magnitude; the histogram is added by hand so we can
    // hold its results handle (sb-run selects both by label).
    let mut wf = plan
        .workflow(hub, &["magnitude".to_string()])
        .expect("magnitude is planned");
    let hist = Histogram::new(("gmag.fp", "radii"), 12);
    let results = hist.results_handle();
    wf.add(1, hist);
    wf.run_with(RunOptions::new().with_validation(Validation::Skip))
        .expect("analysis side");

    for r in lock(&results).iter() {
        println!("\n{}", render_histogram("atom radii (over TCP)", r));
    }
}
