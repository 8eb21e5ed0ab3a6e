//! Helper process for the real-process chaos tests, in one of two roles.
//!
//! *Component*: runs the source side of the chaos pipeline against a broker
//! in another process — TCP or same-host, by URL scheme — optionally dying
//! mid-run with no cleanup at all. That is what a SIGKILL looks like to the
//! broker on either fabric: a socket EOF with no close/abandon terminator.
//!
//! *Broker*: serves an empty hub and parks, so a test can kill the broker
//! itself under its clients. The URL to connect to is the one line it
//! prints.
//!
//! Usage: `component_host (tcp://HOST:PORT | shm://DIR) STEPS [abort-at=N]`
//!        `component_host serve (HOST:PORT | shm://DIR)`

use sb_integration_tests::chaos_coords;
use sb_stream::{ShmBroker, TcpBroker};
use smartblock::prelude::*;

const USAGE: &str =
    "usage: component_host (tcp://HOST:PORT | shm://DIR) STEPS [abort-at=N]\n       \
                     component_host serve (HOST:PORT | shm://DIR)";

/// Announces `url` and keeps `_broker` serving until the process is killed.
fn serve_forever<B>(url: String, _broker: B) -> ! {
    println!("{url}");
    loop {
        std::thread::park();
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let url = args.next().expect(USAGE);
    if url == "serve" {
        let addr = args.next().expect(USAGE);
        if addr.starts_with("shm://") {
            let broker = ShmBroker::bind(&addr).expect("bind shm broker");
            serve_forever(broker.url(), broker);
        }
        let broker = TcpBroker::bind(&addr).expect("bind tcp broker");
        serve_forever(broker.url(), broker);
    }
    let steps: u64 = args.next().expect(USAGE).parse().expect(USAGE);
    let abort_at: Option<u64> = args.next().map(|a| {
        a.strip_prefix("abort-at=")
            .expect(USAGE)
            .parse()
            .expect(USAGE)
    });

    let hub = StreamHub::connect(&url).expect("connect to broker");
    let mut wf = Workflow::with_hub(hub);
    wf.add_source("gen", 1, "c.fp", move |step| {
        if Some(step) == abort_at {
            // Die like a killed process: no unwinding, no destructors, no
            // EOS — the broker learns about it only from the socket EOF.
            std::process::abort();
        }
        (step < steps).then(|| chaos_coords(step, 8))
    });
    // This process holds one component of a cross-process workflow; the
    // wiring dangles into the peer by design, so validation is skipped.
    wf.run_with(RunOptions::new().with_validation(Validation::Skip))
        .expect("source workflow");
}
