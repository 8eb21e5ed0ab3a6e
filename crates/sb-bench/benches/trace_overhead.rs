//! Prices the tracing layer's per-event primitives in isolation:
//!
//! * `trace_hot_path/disabled_span` — the default: tracer never armed. A
//!   disabled tracer's entire cost is one relaxed atomic load per
//!   instrumentation site.
//! * `trace_hot_path/armed_ring_span` — a ring push on an armed tracer.
//!
//! What tracing costs a whole traced run end to end is the benchmark's
//! `trace_overhead_pct` (see `benchmark/README.md`).

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use sb_stream::{EventKind, TraceConfig, TraceSite, Tracer};

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
    targets = bench_hot_path
}
criterion_main!(trace_overhead);
