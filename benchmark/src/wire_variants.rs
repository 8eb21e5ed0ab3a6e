//! The `wire_variants` diagnostic: one 96 KB LAMMPS frame per step, 1x1,
//! over loopback TCP in wire v1, v2 and v2+LZ, interleaved, to settle
//! whether `BENCH_tcp.json`'s "v2 822 us vs v1 432 us" was real or noise.

use std::time::Instant;

use sb_data::Chunk;
use sb_stream::{
    Compression, StepStatus, StreamHub, TcpBroker, TcpOptions, WireProtocol, WriterOptions,
};

use crate::capture::{capture, CaptureSpec, Code};
use crate::json::Json;
use crate::stats::summarize;

const VARIANTS: [(&str, WireProtocol, Compression); 3] = [
    ("tcp-v1", WireProtocol::V1, Compression::None),
    ("tcp-v2", WireProtocol::V2, Compression::None),
    ("tcp-v2+lz", WireProtocol::V2, Compression::Lz),
];

/// A 50 x 50 lattice less the notch: 2 450-odd particles x 5 f64, 96 KB.
const SMALL_NX: usize = 50;
pub const REPS: usize = 10;

/// Pumps `steps` copies of `frame` writer -> broker -> reader and returns
/// microseconds per step; every step read must equal the frame.
fn pump(
    frame: &Chunk,
    protocol: WireProtocol,
    compression: Compression,
    steps: u64,
) -> Result<f64, String> {
    let mut broker = TcpBroker::bind("127.0.0.1:0").map_err(|e| format!("broker bind: {e}"))?;
    let options = TcpOptions::default()
        .with_protocol(protocol)
        .with_compression(compression);
    let hub =
        StreamHub::connect_with(&broker.url(), options).map_err(|e| format!("connect: {e}"))?;
    let start = Instant::now();
    let outcome = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<(), String> {
            let mut w = hub.open_writer("pump.fp", 0, 1, WriterOptions::default());
            for _ in 0..steps {
                w.begin_step().map_err(|e| e.to_string())?;
                w.put(frame.clone());
                w.end_step().map_err(|e| e.to_string())?;
            }
            w.close();
            Ok(())
        });
        let reader = scope.spawn(|| -> Result<u64, String> {
            let mut r = hub.open_reader("pump.fp", 0, 1);
            let mut seen = 0;
            while let StepStatus::Ready(_) = r.begin_step().map_err(|e| e.to_string())? {
                let v = r.get_whole(&frame.meta.name).map_err(|e| e.to_string())?;
                if *v.data != *frame.data {
                    return Err(format!("step {seen} arrived altered"));
                }
                r.end_step();
                seen += 1;
            }
            Ok(seen)
        });
        let written = writer
            .join()
            .map_err(|_| "pump writer panicked".to_string())?;
        let seen = reader
            .join()
            .map_err(|_| "pump reader panicked".to_string())??;
        written.map(|()| seen)
    });
    let elapsed = start.elapsed();
    drop(hub);
    broker.shutdown();
    match outcome? {
        seen if seen == steps => Ok(elapsed.as_secs_f64() * 1e6 / steps as f64),
        seen => Err(format!("reader saw {seen} of {steps} steps")),
    }
}

/// "A is faster than B" holds when A wins at least nine tenths of the
/// interleaved pairs and the medians differ by more than B's own spread.
fn verdict(a: &[f64], b: &[f64]) -> (usize, bool) {
    let wins = a.iter().zip(b).filter(|(x, y)| x < y).count();
    let (sa, sb) = (summarize(a), summarize(b));
    let clear = wins * 10 >= a.len() * 9 && (sb.median - sa.median) > (sb.q3 - sb.q1);
    (wins, clear)
}

/// Runs [`REPS`] interleaved rounds of the three variants and states the
/// verdict on v1 against v2.
pub fn run(seed: u64, steps: u64) -> Result<Json, String> {
    let cap = capture(
        CaptureSpec {
            code: Code::Lammps,
            size: SMALL_NX,
            frames: 1,
            warm_substeps: 2,
            substeps: 1,
        },
        seed,
    );
    let frame = &cap.frames[0];
    let mut samples = vec![Vec::new(); VARIANTS.len()];
    for _ in 0..REPS {
        for (i, (_, protocol, compression)) in VARIANTS.iter().enumerate() {
            samples[i].push(pump(frame, *protocol, *compression, steps)?);
        }
    }
    let (v1_wins, v1_faster) = verdict(&samples[0], &samples[1]);
    let (v2_wins, v2_faster) = verdict(&samples[1], &samples[0]);
    let (v1, v2) = (summarize(&samples[0]).median, summarize(&samples[1]).median);
    let text = if v1_faster {
        format!(
            "real: v1 ({v1:.0} us/step) beats v2 ({v2:.0} us/step) in {v1_wins} of {REPS} pairs, by more than v2's own spread"
        )
    } else {
        let v2_note = if v2_faster {
            "v2 is the faster one, by more than v1's own spread"
        } else {
            "the gap lies inside the spread"
        };
        format!(
            "noise: 'v2 slower than v1' does not reproduce; v1 ({v1:.0} us/step) wins {v1_wins} of {REPS} pairs, v2 ({v2:.0} us/step) wins {v2_wins}; {v2_note}"
        )
    };
    let variants = VARIANTS.iter().zip(&samples).map(|((name, ..), us)| {
        let s = summarize(us);
        Json::obj([
            ("name", Json::str(*name)),
            ("us_per_step_median", Json::Num(s.median)),
            ("q1", Json::Num(s.q1)),
            ("q3", Json::Num(s.q3)),
            ("n", Json::Num(s.n as f64)),
        ])
    });
    Ok(Json::obj([
        ("payload_bytes_step", Json::Num(frame.byte_len() as f64)),
        ("steps_per_rep", Json::Num(steps as f64)),
        ("variants", Json::Arr(variants.collect())),
        ("v1_vs_v2", Json::str(text)),
    ]))
}
