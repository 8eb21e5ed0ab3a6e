//! Records the zero-copy data plane's before/after numbers into
//! `BENCH_transport.json` — the first entry in the repo's perf
//! trajectory.
//!
//! Each run pumps a fixed payload from 1 writer to N readers in two
//! shapes (`whole_read`: N one-rank groups each reading the whole
//! variable; `slab_read`: one N-rank group reading row slabs) and two
//! modes (`zero_copy`: the current data plane; `copying`: the previous
//! plane, pinned via `StreamReader::set_force_copy`). The headline:
//! whole-read `bytes_copied` scaled linearly with N before and is 0
//! after.
//!
//! Run with: `cargo run --release -p sb-bench --bin bench_transport`
//! Options: `--smoke` (tiny sizes, for CI schema validation),
//! `--tcp` (measure the framed TCP backend against in-proc instead,
//! emitting `BENCH_tcp.json`), `--out PATH` (default
//! `BENCH_transport.json`, or `BENCH_tcp.json` under `--tcp`).

use std::time::Duration;

use sb_bench::{run_fanout, run_wire_on, FanoutConfig, FanoutResult, FanoutShape, WireConfig};
use sb_stream::tcp::TcpBroker;
use sb_stream::StreamHub;
use smartblock::metrics::format_table;

/// Scale of one emitter invocation.
struct BenchScale {
    smoke: bool,
    rows: usize,
    cols: usize,
    steps: u64,
    reader_counts: &'static [usize],
    /// Timed repetitions per configuration; counters are deterministic so
    /// only wall time benefits from the extra runs (best-of is kept).
    reps: usize,
}

impl BenchScale {
    fn full() -> BenchScale {
        BenchScale {
            smoke: false,
            rows: 131_072,
            cols: 8,
            steps: 12,
            reader_counts: &[1, 2, 4, 8],
            reps: 3,
        }
    }

    fn smoke() -> BenchScale {
        BenchScale {
            smoke: true,
            rows: 256,
            cols: 8,
            steps: 2,
            reader_counts: &[1, 2],
            reps: 1,
        }
    }
}

/// Runs one configuration `reps` times and keeps the fastest wall time
/// (the counters are identical across repetitions).
fn measure(config: &FanoutConfig, reps: usize) -> FanoutResult {
    let mut best: Option<FanoutResult> = None;
    for _ in 0..reps.max(1) {
        let r = run_fanout(config);
        if best.as_ref().is_none_or(|b| r.elapsed < b.elapsed) {
            best = Some(r);
        }
    }
    best.expect("at least one repetition")
}

fn json_run(r: &FanoutResult) -> String {
    let mode = if r.config.force_copy {
        "copying"
    } else {
        "zero_copy"
    };
    let mb_per_s = r.config.payload_bytes() as f64 * r.config.steps as f64
        / r.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
        / 1e6;
    format!(
        "    {{\n      \"shape\": \"{}\",\n      \"mode\": \"{}\",\n      \"readers\": {},\n      \
         \"ns_per_step\": {:.0},\n      \"payload_mb_per_s\": {:.1},\n      \"bytes_read\": {},\n      \
         \"bytes_copied\": {},\n      \"copies_elided\": {},\n      \"zero_fills_elided\": {}\n    }}",
        r.config.shape.label(),
        mode,
        r.config.readers,
        r.ns_per_step(),
        mb_per_s,
        r.metrics.bytes_read,
        r.metrics.bytes_copied,
        r.metrics.copies_elided,
        r.metrics.zero_fills_elided,
    )
}

fn render_json(scale: &BenchScale, runs: &[FanoutResult]) -> String {
    let payload = (scale.rows * scale.cols * 8) as u64;
    let body: Vec<String> = runs.iter().map(json_run).collect();
    format!(
        "{{\n  \"schema\": \"smartblock.bench_transport.v1\",\n  \"smoke\": {},\n  \
         \"rows\": {},\n  \"cols\": {},\n  \"steps\": {},\n  \"payload_bytes_per_step\": {},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        scale.smoke,
        scale.rows,
        scale.cols,
        scale.steps,
        payload,
        body.join(",\n")
    )
}

/// Minimal schema check on the emitted text: every required key appears
/// once per run (plus the header keys). Keeps the CI smoke job honest
/// without a JSON dependency.
fn validate(text: &str, expected_runs: usize) -> Result<(), String> {
    for key in ["\"schema\"", "\"payload_bytes_per_step\"", "\"runs\""] {
        if text.matches(key).count() != 1 {
            return Err(format!("header key {key} missing or repeated"));
        }
    }
    if !text.contains("\"smartblock.bench_transport.v1\"") {
        return Err("schema identifier missing".into());
    }
    for key in [
        "\"shape\"",
        "\"mode\"",
        "\"readers\"",
        "\"ns_per_step\"",
        "\"bytes_read\"",
        "\"bytes_copied\"",
        "\"copies_elided\"",
        "\"zero_fills_elided\"",
    ] {
        let n = text.matches(key).count();
        if n != expected_runs {
            return Err(format!("key {key} appears {n} times, want {expected_runs}"));
        }
    }
    Ok(())
}

/// The claim the file exists to document: with the zero-copy plane, a
/// whole-read's copied bytes do not grow with the reader count (they are
/// zero), while the copying plane moves payload x readers x steps.
fn check_headline(runs: &[FanoutResult]) -> Result<(), String> {
    for r in runs {
        if r.config.shape != FanoutShape::WholeRead {
            continue;
        }
        let expect_copied = if r.config.force_copy {
            r.config.payload_bytes() * r.config.readers as u64 * r.config.steps
        } else {
            0
        };
        if r.metrics.bytes_copied != expect_copied {
            return Err(format!(
                "whole_read readers={} force_copy={}: bytes_copied = {}, want {}",
                r.config.readers, r.config.force_copy, r.metrics.bytes_copied, expect_copied
            ));
        }
    }
    Ok(())
}

/// One transport/protocol/codec combination of the `--tcp` comparison.
#[derive(Clone, Copy, PartialEq, Eq)]
struct TcpVariant {
    /// Row label, also the stream-name tag: `inproc`, `tcp-v1`, `tcp-v2`,
    /// `tcp-v2lz`.
    label: &'static str,
    backend: &'static str,
    protocol: &'static str,
    compression: &'static str,
}

const VARIANTS: &[TcpVariant] = &[
    TcpVariant {
        label: "inproc",
        backend: "inproc",
        protocol: "-",
        compression: "-",
    },
    TcpVariant {
        label: "tcp-v1",
        backend: "tcp",
        protocol: "v1",
        compression: "none",
    },
    TcpVariant {
        label: "tcp-v2",
        backend: "tcp",
        protocol: "v2",
        compression: "none",
    },
    TcpVariant {
        label: "tcp-v2lz",
        backend: "tcp",
        protocol: "v2",
        compression: "lz",
    },
];

/// One (writers, readers, rows) pump of the `--tcp` comparison, measured
/// on one variant.
struct TcpRun {
    variant: TcpVariant,
    result: sb_bench::WireResult,
}

/// Scale of one `--tcp` emitter invocation: each case is pumped on the
/// in-proc backend and on a loopback TCP broker.
struct TcpScale {
    smoke: bool,
    cols: usize,
    steps: u64,
    /// (writers, readers, rows) cases.
    cases: &'static [(usize, usize, usize)],
    reps: usize,
}

impl TcpScale {
    fn full() -> TcpScale {
        TcpScale {
            smoke: false,
            cols: 3,
            steps: 12,
            cases: &[
                (1, 1, 4_096),
                (1, 1, 65_536),
                (1, 1, 262_144),
                (2, 2, 65_536),
                (4, 2, 65_536),
            ],
            reps: 3,
        }
    }

    fn smoke() -> TcpScale {
        TcpScale {
            smoke: true,
            cols: 3,
            steps: 2,
            cases: &[(1, 1, 256), (2, 2, 256)],
            reps: 1,
        }
    }
}

/// Best-of-`reps` wall time for one backend-blind pump; a fresh stream name
/// per repetition keeps pumps independent on a shared hub.
fn measure_wire(
    hub: &std::sync::Arc<StreamHub>,
    tag: &str,
    config: &WireConfig,
    reps: usize,
) -> sb_bench::WireResult {
    let mut best: Option<sb_bench::WireResult> = None;
    for rep in 0..reps.max(1) {
        let r = run_wire_on(hub, &format!("{tag}-rep{rep}.fp"), config);
        if best.as_ref().is_none_or(|b| r.elapsed < b.elapsed) {
            best = Some(r);
        }
    }
    best.expect("at least one repetition")
}

fn json_tcp_run(r: &TcpRun) -> String {
    let c = &r.result.config;
    let m = &r.result.metrics;
    let moved = c.payload_bytes() * c.steps;
    let reader_moved = moved * c.readers as u64;
    let mb_per_s = moved as f64 / r.result.elapsed.as_secs_f64().max(f64::MIN_POSITIVE) / 1e6;
    format!(
        "    {{\n      \"backend\": \"{}\",\n      \"protocol\": \"{}\",\n      \
         \"compression\": \"{}\",\n      \"writers\": {},\n      \"readers\": {},\n      \
         \"rows\": {},\n      \"payload_bytes_per_step\": {},\n      \"ns_per_step\": {:.0},\n      \
         \"payload_mb_per_s\": {:.1},\n      \"wire_writer_bytes\": {},\n      \
         \"wire_reader_bytes\": {},\n      \"writer_hop_amplification\": {:.3},\n      \
         \"reader_hop_amplification\": {:.3},\n      \"bytes_on_wire\": {}\n    }}",
        r.variant.backend,
        r.variant.protocol,
        r.variant.compression,
        c.writers,
        c.readers,
        c.rows,
        c.payload_bytes(),
        r.result.ns_per_step(),
        mb_per_s,
        m.wire_writer_bytes,
        m.wire_reader_bytes,
        m.wire_writer_bytes as f64 / moved as f64,
        m.wire_reader_bytes as f64 / reader_moved as f64,
        m.bytes_on_wire,
    )
}

fn render_tcp_json(scale: &TcpScale, runs: &[TcpRun]) -> String {
    let body: Vec<String> = runs.iter().map(json_tcp_run).collect();
    format!(
        "{{\n  \"schema\": \"smartblock.bench_tcp.v2\",\n  \"smoke\": {},\n  \"cols\": {},\n  \
         \"steps\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        scale.smoke,
        scale.cols,
        scale.steps,
        body.join(",\n")
    )
}

/// Minimal schema check mirroring [`validate`], for the `--tcp` emission.
fn validate_tcp(text: &str, expected_runs: usize) -> Result<(), String> {
    for key in ["\"schema\"", "\"steps\"", "\"runs\""] {
        if text.matches(key).count() != 1 {
            return Err(format!("header key {key} missing or repeated"));
        }
    }
    if !text.contains("\"smartblock.bench_tcp.v2\"") {
        return Err("schema identifier missing".into());
    }
    for key in [
        "\"backend\"",
        "\"protocol\"",
        "\"compression\"",
        "\"writers\"",
        "\"readers\"",
        "\"rows\"",
        "\"payload_bytes_per_step\"",
        "\"ns_per_step\"",
        "\"payload_mb_per_s\"",
        "\"wire_writer_bytes\"",
        "\"wire_reader_bytes\"",
        "\"writer_hop_amplification\"",
        "\"reader_hop_amplification\"",
        "\"bytes_on_wire\"",
    ] {
        let n = text.matches(key).count();
        if n != expected_runs {
            return Err(format!("key {key} appears {n} times, want {expected_runs}"));
        }
    }
    Ok(())
}

/// The claims `BENCH_tcp.json` exists to document. Every variant commits
/// the same steps; the in-proc plane frames nothing. On TCP each hop is
/// counted once: the writer hop carries the committed payload about once
/// and the reader hop about once *per reader* — under interning without
/// compression, within 1.1x of that floor (the old double-counting
/// reported 4x for a 1x1 pipeline). Compressed runs must never exceed
/// their uncompressed payload volume on either hop, and in full mode the
/// biggest 1x1 case must move payload at >= 1.5x the v1 rate under v2+lz.
fn check_tcp_headline(scale: &TcpScale, runs: &[TcpRun]) -> Result<(), String> {
    for r in runs {
        let c = &r.result.config;
        let m = &r.result.metrics;
        let at = format!(
            "{} {}x{} rows={}",
            r.variant.label, c.writers, c.readers, c.rows
        );
        if m.steps_committed != c.steps {
            return Err(format!(
                "{at}: committed {} steps, want {}",
                m.steps_committed, c.steps
            ));
        }
        let moved = c.payload_bytes() * c.steps;
        let reader_moved = moved * c.readers as u64;
        if r.variant.backend == "inproc" {
            if m.bytes_on_wire != 0 {
                return Err(format!("{at}: in-proc framed {} bytes", m.bytes_on_wire));
            }
            continue;
        }
        if m.bytes_on_wire != m.wire_writer_bytes + m.wire_reader_bytes {
            return Err(format!(
                "{at}: hop counters do not sum: {} + {} != {}",
                m.wire_writer_bytes, m.wire_reader_bytes, m.bytes_on_wire
            ));
        }
        if r.variant.compression == "lz" {
            // Compressible bench payload: the wire must not exceed the raw
            // volume (plus framing slack), and the codec ledger must agree.
            if m.wire_compressed_bytes > m.wire_uncompressed_bytes {
                return Err(format!(
                    "{at}: codec grew the payload: {} > {}",
                    m.wire_compressed_bytes, m.wire_uncompressed_bytes
                ));
            }
            if m.wire_writer_bytes as f64 > moved as f64 * 1.1 {
                return Err(format!(
                    "{at}: compressed writer hop above raw volume: {} vs {moved}",
                    m.wire_writer_bytes
                ));
            }
            continue;
        }
        // Uncompressed hops carry every payload byte at least once.
        if m.wire_writer_bytes < moved || m.wire_reader_bytes < reader_moved {
            return Err(format!(
                "{at}: hops lost bytes: writer {} vs {moved}, reader {} vs {reader_moved}",
                m.wire_writer_bytes, m.wire_reader_bytes
            ));
        }
        if r.variant.protocol == "v2" {
            for (hop, bytes, floor) in [
                ("writer", m.wire_writer_bytes, moved),
                ("reader", m.wire_reader_bytes, reader_moved),
            ] {
                if bytes as f64 > floor as f64 * 1.1 {
                    return Err(format!(
                        "{at}: {hop}-hop amplification {:.3} above 1.1",
                        bytes as f64 / floor as f64
                    ));
                }
            }
        }
    }
    if !scale.smoke {
        // Full mode also documents the compression payoff: the biggest 1x1
        // case moves payload at >= 1.5x the v1 rate under v2+lz.
        let (&(w, r_, rows), _) = scale
            .cases
            .iter()
            .zip(0..)
            .filter(|((w, r, _), _)| *w == 1 && *r == 1)
            .max_by_key(|((_, _, rows), _)| *rows)
            .ok_or("no 1x1 case to compare")?;
        let rate = |label: &str| -> Result<f64, String> {
            let run = runs
                .iter()
                .find(|x| {
                    x.variant.label == label
                        && x.result.config.writers == w
                        && x.result.config.readers == r_
                        && x.result.config.rows == rows
                })
                .ok_or_else(|| format!("missing {label} run for the 1x1 headline"))?;
            let moved = run.result.config.payload_bytes() * run.result.config.steps;
            Ok(moved as f64 / run.result.elapsed.as_secs_f64().max(f64::MIN_POSITIVE))
        };
        let (v1, v2lz) = (rate("tcp-v1")?, rate("tcp-v2lz")?);
        if v2lz < v1 * 1.5 {
            return Err(format!(
                "1x1 rows={rows}: v2+lz moves {:.1} MB/s vs v1 {:.1} MB/s — below the 1.5x target",
                v2lz / 1e6,
                v1 / 1e6
            ));
        }
    }
    Ok(())
}

/// The `--tcp` mode: pump every case on both backends, emit
/// `BENCH_tcp.json`, and print the slowdown table.
fn run_tcp_mode(scale: &TcpScale, out_path: &str) {
    use sb_stream::{Compression, TcpOptions, WireProtocol};

    let mut broker = TcpBroker::bind("127.0.0.1:0").expect("bind loopback broker");
    // One broker, one client hub per protocol/codec combination — exactly
    // how mixed-version deployments share a broker in practice.
    let hub_for = |variant: &TcpVariant| {
        let options = match (variant.protocol, variant.compression) {
            ("v1", _) => TcpOptions::default().with_protocol(WireProtocol::V1),
            (_, "lz") => TcpOptions::default().with_compression(Compression::Lz),
            _ => TcpOptions::default(),
        };
        StreamHub::connect_with(&broker.url(), options).expect("connect to broker")
    };
    let tcp_hubs: Vec<_> = VARIANTS
        .iter()
        .filter(|v| v.backend == "tcp")
        .map(|v| (v.label, hub_for(v)))
        .collect();

    let mut runs = Vec::new();
    for &(writers, readers, rows) in scale.cases {
        let config = WireConfig {
            writers,
            readers,
            rows,
            cols: scale.cols,
            steps: scale.steps,
        };
        for variant in VARIANTS {
            let tag = format!("{}-w{writers}r{readers}n{rows}", variant.label);
            let result = if variant.backend == "inproc" {
                measure_wire(&StreamHub::new(), &tag, &config, scale.reps)
            } else {
                let hub = &tcp_hubs
                    .iter()
                    .find(|(label, _)| *label == variant.label)
                    .expect("hub per tcp variant")
                    .1;
                measure_wire(hub, &tag, &config, scale.reps)
            };
            eprintln!(
                "{:>9} {}x{} rows={:>7}: {:>9.2} us/step, wire w->b {} / b->r {}",
                variant.label,
                writers,
                readers,
                rows,
                result.ns_per_step() / 1e3,
                result.metrics.wire_writer_bytes,
                result.metrics.wire_reader_bytes,
            );
            runs.push(TcpRun {
                variant: *variant,
                result,
            });
        }
    }
    broker.shutdown();

    if let Err(e) = check_tcp_headline(scale, &runs) {
        eprintln!("headline claim does not hold: {e}");
        std::process::exit(1);
    }

    let text = render_tcp_json(scale, &runs);
    std::fs::write(out_path, &text).expect("write BENCH_tcp.json");
    let reread = std::fs::read_to_string(out_path).expect("re-read emitted JSON");
    if let Err(e) = validate_tcp(&reread, runs.len()) {
        eprintln!("emitted JSON failed schema validation: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} ({} runs)", runs.len());

    let mut rows_out = Vec::new();
    for case in runs.chunks(VARIANTS.len()) {
        let inproc = &case[0];
        for run in &case[1..] {
            let c = &run.result.config;
            let m = &run.result.metrics;
            let moved = c.payload_bytes() * c.steps;
            rows_out.push(vec![
                format!("{}x{}", c.writers, c.readers),
                c.rows.to_string(),
                run.variant.label.to_string(),
                format!("{:.2}", run.result.ns_per_step() / 1e3),
                format!(
                    "{:.1}x",
                    run.result.ns_per_step() / inproc.result.ns_per_step().max(f64::MIN_POSITIVE)
                ),
                format!("{:.3}", m.wire_writer_bytes as f64 / moved as f64),
                format!(
                    "{:.3}",
                    m.wire_reader_bytes as f64 / (moved * c.readers as u64) as f64
                ),
            ]);
        }
    }
    println!("\n== MxN pump: in-proc vs framed TCP on loopback, per wire protocol ==\n");
    println!(
        "{}",
        format_table(
            &[
                "WxR",
                "Rows",
                "Variant",
                "us/step",
                "vs inproc",
                "Writer-hop amp",
                "Reader-hop amp",
            ],
            &rows_out
        )
    );
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut smoke = false;
    let mut tcp = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--tcp" => tcp = true,
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            other => {
                eprintln!("unknown argument {other:?} (options: --smoke, --tcp, --out PATH)");
                std::process::exit(2);
            }
        }
    }

    if tcp {
        let scale = if smoke {
            TcpScale::smoke()
        } else {
            TcpScale::full()
        };
        let out_path = out_path.unwrap_or_else(|| "BENCH_tcp.json".into());
        run_tcp_mode(&scale, &out_path);
        return;
    }

    let out_path = out_path.unwrap_or_else(|| "BENCH_transport.json".into());
    let scale = if smoke {
        BenchScale::smoke()
    } else {
        BenchScale::full()
    };

    let mut runs = Vec::new();
    for shape in [FanoutShape::WholeRead, FanoutShape::SlabRead] {
        for &readers in scale.reader_counts {
            for force_copy in [true, false] {
                let config = FanoutConfig {
                    shape,
                    readers,
                    rows: scale.rows,
                    cols: scale.cols,
                    steps: scale.steps,
                    force_copy,
                };
                let r = measure(&config, scale.reps);
                eprintln!(
                    "{:>10} x{} {:>9}: {:>8.2} ms/step, {} bytes copied, {} copies elided",
                    shape.label(),
                    readers,
                    if force_copy { "copying" } else { "zero_copy" },
                    r.ns_per_step() / 1e6,
                    r.metrics.bytes_copied,
                    r.metrics.copies_elided,
                );
                runs.push(r);
            }
        }
    }

    if let Err(e) = check_headline(&runs) {
        eprintln!("headline claim does not hold: {e}");
        std::process::exit(1);
    }

    let text = render_json(&scale, &runs);
    std::fs::write(&out_path, &text).expect("write BENCH_transport.json");
    let reread = std::fs::read_to_string(&out_path).expect("re-read emitted JSON");
    if let Err(e) = validate(&reread, runs.len()) {
        eprintln!("emitted JSON failed schema validation: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path} ({} runs)", runs.len());

    // Human-readable summary: copy bytes per whole-read step, by reader
    // count, before vs after.
    let mut rows = Vec::new();
    for &readers in scale.reader_counts {
        let pick = |force: bool| -> &FanoutResult {
            runs.iter()
                .find(|r| {
                    r.config.shape == FanoutShape::WholeRead
                        && r.config.readers == readers
                        && r.config.force_copy == force
                })
                .expect("whole-read run present")
        };
        let (before, after) = (pick(true), pick(false));
        rows.push(vec![
            readers.to_string(),
            (before.metrics.bytes_copied / before.config.steps).to_string(),
            (after.metrics.bytes_copied / after.config.steps).to_string(),
            format!(
                "{:.2}",
                Duration::from_nanos(before.ns_per_step() as u64).as_secs_f64() * 1e3
            ),
            format!(
                "{:.2}",
                Duration::from_nanos(after.ns_per_step() as u64).as_secs_f64() * 1e3
            ),
        ]);
    }
    println!("\n== whole-read fan-out: copied bytes/step and ms/step, copying vs zero-copy ==\n");
    println!(
        "{}",
        format_table(
            &[
                "Readers",
                "Copied B/step (before)",
                "Copied B/step (after)",
                "ms/step (before)",
                "ms/step (after)",
            ],
            &rows
        )
    );
}
