//! Prices the tracing layer on a 1-writer x 4-group whole-read fan-out.
//!
//! * `trace_overhead/fanout_disabled` — the default: tracer never armed.
//!   A disabled tracer's entire cost is one relaxed atomic load per
//!   instrumentation site (the end-to-end figure is the benchmark's
//!   `trace_overhead_pct`, see `benchmark/README.md`).
//! * `trace_overhead/fanout_traced` — the tracer armed and drained, the
//!   cost a traced run knowingly accepts.
//! * `trace_hot_path/*` — the per-event primitives in isolation: a span
//!   call against a disabled tracer, and a ring push on an armed one.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sb_bench::{run_fanout_on, FanoutConfig, FanoutShape};
use sb_stream::{EventKind, StreamHub, TraceConfig, TraceSite, Tracer};

const STEPS: u64 = 8;

fn bench_fanout_overhead(c: &mut Criterion) {
    let (rows, cols) = (40_000usize, 4usize);
    let config = FanoutConfig {
        shape: FanoutShape::WholeRead,
        readers: 4,
        rows,
        cols,
        steps: STEPS,
    };
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(STEPS * (rows * cols * 8) as u64));
    group.bench_function("fanout_disabled", |b| {
        b.iter(|| {
            let hub = StreamHub::new();
            black_box(run_fanout_on(&hub, &config))
        })
    });
    group.bench_function("fanout_traced", |b| {
        b.iter(|| {
            let hub = StreamHub::new();
            hub.tracer().enable(&TraceConfig::new());
            let r = run_fanout_on(&hub, &config);
            black_box(hub.tracer().drain().len());
            black_box(r)
        })
    });
    group.finish();
}

fn bench_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_hot_path");
    group.bench_function("disabled_span", |b| {
        let tracer = Arc::new(Tracer::new());
        let site = TraceSite::component(0, 0, 0);
        b.iter(|| tracer.span(black_box(EventKind::Compute), site, black_box(0)));
    });
    group.bench_function("armed_ring_span", |b| {
        let tracer = Arc::new(Tracer::new());
        tracer.enable(&TraceConfig::new());
        let _ring = tracer.install_thread_ring();
        let site = TraceSite::component(tracer.intern("bench"), 0, 0);
        b.iter(|| {
            let start = tracer.now_ns();
            tracer.span(EventKind::Compute, site, black_box(start));
        });
    });
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = trace_overhead;
    config = configured();
    targets = bench_fanout_overhead, bench_hot_path
}
criterion_main!(trace_overhead);
