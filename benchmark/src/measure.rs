//! Turning runs into metrics: the end-to-end sample of a workload, and the
//! per-layer table of its traced pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sb_stream::{StreamMetrics, Timeline};
use smartblock::prelude::RunOptions;
use smartblock::workflows::{lammps_aio_workflow, lammps_sim_only, lammps_workflow, PresetScale};

use crate::capture::{self, Capture, Code, BINS};
use crate::pipeline::{self, Feed, Load, RunResult, Shape, Stop};
use crate::probes::{self, Probes};
use crate::stats::{median, tail_percentile};
use crate::workloads::{inproc_twin, Workload, LAMMPS_NX, LIVE_SUBSTEPS};

/// A workload with its inputs generated: what every mode runs.
pub struct Prepared {
    pub workload: &'static Workload,
    pub seed: u64,
    pub cap: Capture,
    feed: Feed,
}

impl Prepared {
    pub fn new(workload: &'static Workload, seed: u64) -> Prepared {
        let cap = capture::capture(workload.capture, seed);
        let feed = if workload.live {
            Feed::Live {
                nx: LAMMPS_NX,
                seed,
                substeps: LIVE_SUBSTEPS,
            }
        } else {
            Feed::Replay(Arc::new(cap.writer_chunks(workload.shape.source_ranks)))
        };
        Prepared {
            workload,
            seed,
            cap,
            feed,
        }
    }

    pub fn run(
        &self,
        shape: &Shape,
        stop: Stop,
        load: Load,
        traced: bool,
    ) -> Result<RunResult, String> {
        pipeline::run_pipeline(
            shape,
            self.feed.clone(),
            stop,
            load,
            &self.cap.reference,
            traced,
        )
        .map_err(|e| format!("{}: {e}", self.workload.name))
    }
}

/// End-to-end samples of one workload.
#[derive(Default)]
pub struct EndToEnd {
    /// One entry per saturated rep.
    pub payload_mb_s: Vec<f64>,
    /// One entry per paced rep: the median over its post-warm-up steps.
    pub latency_p50_ms: Vec<f64>,
    /// Every post-warm-up step of every paced rep, for the p95 diagnostic.
    pub latencies_ms: Vec<f64>,
    /// One entry per rep, saturated or paced.
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first steps' histograms, for the cross-backend check.
    pub head: Vec<capture::Reference>,
    /// Byte and step counters of the last saturated rep: `(name, value)`.
    pub counters: Vec<(String, u64)>,
}

impl EndToEnd {
    /// Counts the run's steps and checks; a warm-up run adds nothing else.
    pub fn absorb(&mut self, r: &RunResult, load: Load, warm_up: bool) {
        self.attempted += r.steps;
        self.failed += r.failed;
        if warm_up {
            return;
        }
        self.setup_s.push(r.setup_s);
        match load {
            Load::Saturated => {
                self.payload_mb_s.push(r.payload_mb_s());
                self.head = r.head.clone();
                self.counters = exact_counters(r);
            }
            Load::Paced => {
                self.latency_p50_ms.push(median(&r.latencies_ms));
                self.latencies_ms.extend_from_slice(&r.latencies_ms);
            }
        }
    }
}

/// The counters that depend only on the inputs and the step count, never on
/// timing: they must repeat exactly between two runs of one commit.
fn exact_counters(r: &RunResult) -> Vec<(String, u64)> {
    let mut out = vec![("steps".to_string(), r.steps)];
    for m in &r.report.streams {
        let fields: [(&str, u64); 7] = [
            ("bytes_written", m.bytes_written),
            ("bytes_read", m.bytes_read),
            ("steps_committed", m.steps_committed),
            ("steps_consumed", m.steps_consumed),
            ("bytes_copied", m.bytes_copied),
            ("copies_elided", m.copies_elided),
            ("zero_fills_elided", m.zero_fills_elided),
        ];
        out.extend(fields.map(|(k, v)| (format!("{}.{k}", m.stream), v)));
    }
    out
}

/// Length of one timed rep of a driver run, seconds: long enough for the
/// slowest workload to pass a dozen paced steps, short enough that a run
/// holds many reps and their median shrugs off a disturbed one.
const REP_SECONDS: f64 = 1.0;

/// The driver contract's end-to-end measurement: an untimed warm-up rep,
/// then saturated and paced reps alternating for as long as `seconds`
/// allows, at least three of each.
pub fn end_to_end(p: &Prepared, seconds: f64) -> Result<EndToEnd, String> {
    let shape = &p.workload.shape;
    let mut out = EndToEnd::default();
    let warm = (seconds * 0.1).min(1.0);
    let warm_stop = Stop::After(Duration::from_secs_f64(warm));
    out.absorb(
        &p.run(shape, warm_stop, Load::Saturated, false)?,
        Load::Saturated,
        true,
    );
    let pairs = ((seconds - warm) / (2.0 * REP_SECONDS)).floor().max(3.0);
    let rep = Stop::After(Duration::from_secs_f64((seconds - warm) / (2.0 * pairs)));
    for _ in 0..pairs as usize {
        for load in [Load::Saturated, Load::Paced] {
            out.absorb(&p.run(shape, rep, load, false)?, load, false);
        }
    }
    // The per-rep samples behind the medians, for whoever wonders how
    // steady the host was.
    eprintln!("reps payload_mb_s {:.1?}", out.payload_mb_s);
    eprintln!("reps step_latency_p50_ms {:.3?}", out.latency_p50_ms);
    eprintln!("reps setup_s {:.5?}", out.setup_s);
    Ok(out)
}

// ---------------------------------------------------------------- layers

/// One thread's step, split into the layers it passes through. Rows are
/// ms per step; `residual` is the step period minus their sum.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    pub subject: String,
    pub rows: Vec<(&'static str, f64)>,
    pub residual: f64,
}

/// The traced pass of one workload.
pub struct Layers {
    /// Flat per-layer metrics by `BENCHMARK.json` name.
    pub metrics: Vec<(&'static str, f64)>,
    pub period_ms: f64,
    pub source: Budget,
    pub consumer: Budget,
    /// The component that is busy while its upstream waits.
    pub bottleneck: String,
    pub timeline: Timeline,
    pub attempted: u64,
    pub failed: u64,
}

impl Layers {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }
}

fn sum_streams(streams: &[StreamMetrics], f: impl Fn(&StreamMetrics) -> f64) -> f64 {
    streams.iter().map(f).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Layer values read off one run's reports, keyed by metric name.
fn run_layers(r: &RunResult) -> Vec<(&'static str, f64)> {
    let steps = r.steps.max(1) as f64;
    let streams = &r.report.streams;
    let per_step = |f: fn(&StreamMetrics) -> u64| sum_streams(streams, |m| f(m) as f64) / steps;
    let wait_ms = |f: fn(&StreamMetrics) -> Duration| {
        sum_streams(streams, |m| f(m).as_secs_f64() * 1e3) / steps
    };
    let written = sum_streams(streams, |m| m.bytes_written as f64);
    let read = sum_streams(streams, |m| m.bytes_read as f64);
    let mut out = vec![
        ("bytes_copied_step", per_step(|m| m.bytes_copied)),
        ("copies_elided_step", per_step(|m| m.copies_elided)),
        ("zero_fills_elided_step", per_step(|m| m.zero_fills_elided)),
        ("writer_wait_ms_step", wait_ms(|m| m.writer_wait)),
        ("reader_wait_ms_step", wait_ms(|m| m.reader_wait)),
        ("wire_writer_bytes_step", per_step(|m| m.wire_writer_bytes)),
        ("wire_reader_bytes_step", per_step(|m| m.wire_reader_bytes)),
        ("wire_shm_bytes_step", per_step(|m| m.wire_shm_bytes)),
        (
            "writer_hop_amplification",
            ratio(
                sum_streams(streams, |m| m.wire_writer_bytes as f64),
                written,
            ),
        ),
        (
            "reader_hop_amplification",
            ratio(sum_streams(streams, |m| m.wire_reader_bytes as f64), read),
        ),
        ("source_wait_ms_step", r.source_begin_s * 1e3 / steps),
        ("source_put_ms_step", r.source_put_s * 1e3 / steps),
        ("source_commit_ms_step", r.source_end_s * 1e3 / steps),
        ("sink_get_ms_step", r.sink_get_s * 1e3 / steps),
        ("launch_to_first_step_ms", r.setup_s * 1e3),
        ("join_ms", r.join_s * 1e3),
        ("step_period_ms", r.period_ms()),
        ("saturated_latency_p50_ms", median(&r.latencies_ms)),
        (
            "saturated_latency_p95_ms",
            tail_percentile(&r.latencies_ms, 0.95).unwrap_or(0.0),
        ),
    ];
    for (label, compute, wait) in [
        ("select", "select_compute_ms_step", "select_wait_ms_step"),
        (
            "magnitude",
            "magnitude_compute_ms_step",
            "magnitude_wait_ms_step",
        ),
        (
            "histogram",
            "histogram_compute_ms_step",
            "histogram_wait_ms_step",
        ),
    ] {
        let stats = r.report.component(label).map(|c| &c.stats);
        let ms = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e3 / steps);
        out.push((compute, ms(stats.map(|s| s.compute_time))));
        out.push((wait, ms(stats.map(|s| s.wait_time))));
    }
    out
}

fn value_of(values: &[(&'static str, f64)], key: &str) -> f64 {
    values
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |(_, v)| *v)
}

/// Per-key median over several runs' layer values.
fn median_layers(runs: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    runs[0]
        .iter()
        .map(|(key, _)| {
            let samples: Vec<f64> = runs.iter().map(|r| value_of(r, key)).collect();
            (*key, median(&samples))
        })
        .collect()
}

/// The component with the smallest share of its time spent waiting.
fn bottleneck(r: &RunResult) -> String {
    r.report
        .components
        .iter()
        .map(|c| {
            let busy: f64 = c.stats.step_times.iter().map(Duration::as_secs_f64).sum();
            (
                ratio(c.stats.wait_time.as_secs_f64(), busy),
                c.label.clone(),
            )
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map_or_else(String::new, |(_, label)| label)
}

/// Splits the source's and the first component's step into layers. Probe
/// costs are whole-step costs; a rank of an N-rank group encodes or
/// assembles one Nth of the step, while every remote reader rank decodes
/// the whole step body the broker relays.
fn budgets(shape: &Shape, values: &[(&'static str, f64)], probes: &Probes) -> (Budget, Budget) {
    let period = value_of(values, "step_period_ms");
    let remote = shape.backend.is_remote();
    let lz = shape.backend == pipeline::Backend::Tcp(sb_stream::Compression::Lz);
    let ms = |ns: f64| ns / 1e6;
    let on = |cond: bool, v: f64| if cond { v } else { 0.0 };
    let finish = |subject: &str, rows: Vec<(&'static str, f64)>| {
        let sum: f64 = rows.iter().map(|(_, v)| v).sum();
        Budget {
            subject: subject.to_string(),
            residual: period - sum,
            rows,
        }
    };

    // A remote writer encodes (and compresses) each chunk inside `put`;
    // `end_step` sends the frame and waits for the broker's ack.
    let encode = on(remote, ms(probes.encode_ns) / shape.source_ranks as f64);
    let compress = on(lz, ms(probes.lz_compress_ns) / shape.source_ranks as f64);
    let put = value_of(values, "source_put_ms_step");
    let source = finish(
        "bench-source",
        vec![
            ("wait", value_of(values, "source_wait_ms_step")),
            ("encode", encode),
            ("compress", compress),
            ("put_other", (put - encode - compress).max(0.0)),
            ("send_and_ack", value_of(values, "source_commit_ms_step")),
        ],
    );

    let (label, ranks, wait, compute) = match shape.code {
        Code::Lammps => (
            "select",
            shape.select_ranks,
            "select_wait_ms_step",
            "select_compute_ms_step",
        ),
        Code::Gromacs => (
            "magnitude",
            shape.magnitude_ranks,
            "magnitude_wait_ms_step",
            "magnitude_compute_ms_step",
        ),
    };
    let consumer = finish(
        label,
        vec![
            ("wait", value_of(values, wait)),
            ("decode", on(remote, ms(probes.decode_ns))),
            ("decompress", on(lz, ms(probes.lz_decompress_ns))),
            ("assemble", ms(probes.assemble_ns) / ranks as f64),
            ("kernel", value_of(values, compute)),
        ],
    );
    (source, consumer)
}

/// Medians of the Table II trio — SmartBlock preset, all-in-one, simulator
/// alone — run interleaved for about `seconds`.
fn table2_diagnostic(seed: u64, seconds: f64, io_steps: u64) -> Result<(f64, f64, f64), String> {
    let scale = PresetScale {
        sim_ranks: 2,
        analysis_ranks: vec![1, 1, 1],
        io_steps,
        substeps: LIVE_SUBSTEPS,
        bins: BINS,
        ..PresetScale::default()
    }
    .size("nx", LAMMPS_NX)
    .size("ny", LAMMPS_NX)
    .size("seed", seed as usize);
    let (mut smartblock, mut aio, mut sim_only) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while smartblock.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let (wf, _) = lammps_aio_workflow(&scale);
        let report = wf
            .run_with(RunOptions::new())
            .map_err(|e| format!("all-in-one run: {e}"))?;
        aio.push(report.elapsed.as_secs_f64());
        let (wf, _) = lammps_workflow(&scale);
        let report = wf
            .run_with(RunOptions::new())
            .map_err(|e| format!("preset run: {e}"))?;
        smartblock.push(report.elapsed.as_secs_f64());
        let alone = lammps_sim_only(&scale)
            .run()
            .map_err(|e| format!("sim-only run: {e}"))?;
        sim_only.push(alone.as_secs_f64());
    }
    Ok((median(&smartblock), median(&aio), median(&sim_only)))
}

/// The traced pass: probes, the in-proc twin of a remote workload, the
/// Table II trio on the live one, then untraced and traced reps
/// alternating, all inside about `seconds`. `stop` overrides the rep
/// length with a step count (full and smoke reports); `table2_io_steps`
/// sizes each run of the trio.
pub fn layers(
    p: &Prepared,
    seconds: f64,
    stop: Option<Stop>,
    table2_io_steps: u64,
) -> Result<Layers, String> {
    let shape = &p.workload.shape;
    let probes = probes::run(&p.cap, shape);
    let mut budget_s = seconds;
    let mut attempted = 0;
    let mut failed = 0;

    let mut sim = (0.0, 0.0, 0.0);
    if p.workload.live {
        let share = budget_s * 0.4;
        sim = table2_diagnostic(p.seed, share, table2_io_steps)?;
        budget_s -= share;
    }
    let mut twin_period = None;
    if shape.backend.is_remote() {
        let share = budget_s * 0.2;
        let twin_stop = stop.unwrap_or(Stop::After(Duration::from_secs_f64(share)));
        let twin = p.run(&inproc_twin(shape), twin_stop, Load::Saturated, false)?;
        attempted += twin.steps;
        failed += twin.failed;
        twin_period = Some(twin.period_ms());
        budget_s -= share;
    }

    const PAIRS: usize = 3;
    let rep = stop.unwrap_or(Stop::After(Duration::from_secs_f64(
        budget_s / (2 * PAIRS) as f64,
    )));
    let mut untraced_mb_s = Vec::new();
    let mut traced_mb_s = Vec::new();
    let mut traced_layers = Vec::new();
    let mut last = None;
    for _ in 0..PAIRS {
        let plain = p.run(shape, rep, Load::Saturated, false)?;
        let traced = p.run(shape, rep, Load::Saturated, true)?;
        attempted += plain.steps + traced.steps;
        failed += plain.failed + traced.failed;
        untraced_mb_s.push(plain.payload_mb_s());
        traced_mb_s.push(traced.payload_mb_s());
        traced_layers.push(run_layers(&traced));
        last = Some(traced);
    }
    let last = last.expect("at least one traced rep ran");
    let mut metrics = median_layers(&traced_layers);
    let period_ms = value_of(&metrics, "step_period_ms");
    let (source, consumer) = budgets(shape, &metrics, &probes);

    let (smartblock_s, aio_s, sim_only_s) = sim;
    metrics.extend([
        ("sim_only_s", sim_only_s),
        ("sim_share_pct", ratio(sim_only_s, smartblock_s) * 100.0),
        (
            "aio_overhead_pct",
            ratio(smartblock_s - aio_s, aio_s) * 100.0,
        ),
        ("encode_ns_step", probes.encode_ns),
        ("decode_ns_step", probes.decode_ns),
        ("wire_frame_bytes_step", probes.frame_bytes),
        ("lz_compress_ns_step", probes.lz_compress_ns),
        ("lz_decompress_ns_step", probes.lz_decompress_ns),
        ("lz_ratio", probes.lz_ratio),
        ("assemble_ns_step", probes.assemble_ns),
        ("select_rows_ns_step", probes.select_rows_ns),
        ("vector_magnitudes_ns_step", probes.vector_magnitudes_ns),
        ("bin_counts_ns_step", probes.bin_counts_ns),
        (
            "remote_hop_ms_step",
            twin_period.map_or(0.0, |t| period_ms - t),
        ),
        (
            "trace_overhead_pct",
            (1.0 - ratio(median(&traced_mb_s), median(&untraced_mb_s))) * 100.0,
        ),
        ("layers_residual_ms_step", consumer.residual),
    ]);
    let bottleneck = bottleneck(&last);
    Ok(Layers {
        metrics,
        period_ms,
        source,
        consumer,
        bottleneck,
        timeline: last.report.timeline,
        attempted,
        failed,
    })
}
