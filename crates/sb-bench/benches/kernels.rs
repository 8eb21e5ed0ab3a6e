//! Criterion micro-benchmarks of the pure component kernels: the per-step
//! compute cost each SmartBlock component adds to a pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sb_data::{Buffer, Shape, Variable};
use smartblock::dim_reduce::dim_reduce;
use smartblock::histogram::{bin_counts, finite_min_max};
use smartblock::magnitude::vector_magnitudes;
use smartblock::select::select_rows;
use smartblock::threshold::{threshold_filter, Predicate};
use std::hint::black_box;

fn particles_variable(n: usize, props: usize) -> Variable {
    let data: Vec<f64> = (0..n * props).map(|i| (i as f64 * 0.37).sin()).collect();
    Variable::new(
        "atoms",
        Shape::of(&[("particles", n), ("props", props)]),
        Buffer::from(data),
    )
    .unwrap()
}

/// The benchmark's LAMMPS frame: 65 536 particles x {ID, Type, vx, vy, vz}.
const FRAME_ROWS: usize = 65_536;
/// Distinct inputs a frame-sized bench cycles through, so that no call
/// finds its input in cache (8 x 2.6 MB against a few MB of L2/L3 share).
const FRAMES: usize = 8;

/// Samples for a frame-sized bench: the stand-in criterion does not warm
/// up, so ten samples would mostly time the allocator's first touches.
const FRAME_SAMPLES: usize = 400;

/// Calls `kernel` on `inputs` in rotation.
fn bench_cycled<I, O>(b: &mut criterion::Bencher<'_>, inputs: &[I], kernel: impl Fn(&I) -> O) {
    let mut next = 0;
    b.iter(|| {
        let out = kernel(black_box(&inputs[next % inputs.len()]));
        next += 1;
        out
    });
}

fn frames(props: usize) -> Vec<Variable> {
    (0..FRAMES)
        .map(|_| particles_variable(FRAME_ROWS, props))
        .collect()
}

fn bench_select(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_rows");
    group.sample_size(FRAME_SAMPLES);
    group.throughput(Throughput::Bytes((FRAME_ROWS * 3 * 8) as u64));
    let inputs = frames(5);
    for (name, keep) in [
        ("frame_run_of_3", [2, 3, 4]),
        ("frame_3_singletons", [0, 2, 4]),
    ] {
        group.bench_function(name, |b| {
            bench_cycled(b, &inputs, |v| select_rows(v, 1, &keep).unwrap())
        });
    }
    for &n in &[1_000usize, 10_000, 100_000] {
        let v = particles_variable(n, 5);
        group.throughput(Throughput::Bytes((n * 3 * 8) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &v, |b, v| {
            b.iter(|| select_rows(black_box(v), 1, &[2, 3, 4]).unwrap());
        });
    }
    group.finish();
}

fn bench_magnitude(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector_magnitudes");
    group.sample_size(FRAME_SAMPLES);
    group.throughput(Throughput::Bytes((FRAME_ROWS * 3 * 8) as u64));
    let inputs = frames(3);
    group.bench_function("frame", |b| {
        bench_cycled(b, &inputs, |v| vector_magnitudes(v).unwrap())
    });
    for &n in &[1_000usize, 10_000, 100_000] {
        let v = particles_variable(n, 3);
        group.throughput(Throughput::Bytes((n * 3 * 8) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &v, |b, v| {
            b.iter(|| vector_magnitudes(black_box(v)).unwrap());
        });
    }
    group.finish();
}

fn bench_dim_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("dim_reduce");
    // The GTCP shapes: [T, G, 1] fast-ish (remove last into middle) and
    // the fast path [T, G] remove-0-grow-1, plus a genuinely permuting
    // case (remove last into first).
    for &(t, g) in &[(64usize, 256usize), (128, 512)] {
        let cells = t * g;
        let v3 = Variable::new(
            "p",
            Shape::of(&[("t", t), ("g", g), ("q", 1)]),
            Buffer::F64((0..cells).map(|i| i as f64).collect()),
        )
        .unwrap();
        let v2 = Variable::new(
            "p",
            Shape::of(&[("t", t), ("g", g)]),
            Buffer::F64((0..cells).map(|i| i as f64).collect()),
        )
        .unwrap();
        group.throughput(Throughput::Bytes((cells * 8) as u64));
        group.bench_with_input(
            BenchmarkId::new("gtcp_stage1_remove2_grow1", cells),
            &v3,
            |b, v| b.iter(|| dim_reduce(black_box(v), 2, 1).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("fast_path_remove0_grow1", cells),
            &v2,
            |b, v| b.iter(|| dim_reduce(black_box(v), 0, 1).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("permuting_remove1_grow0", cells),
            &v2,
            |b, v| b.iter(|| dim_reduce(black_box(v), 1, 0).unwrap()),
        );
    }
    group.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_counts");
    for &n in &[10_000usize, 100_000, 1_000_000] {
        let values: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73).sin()).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &values, |b, v| {
            b.iter(|| bin_counts(black_box(v), -1.0, 1.0, 64));
        });
    }
    group.finish();
}

/// What the Histogram component does to one rank's values each step:
/// extremes, then counts.
fn bench_histogram_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram_step");
    group.sample_size(FRAME_SAMPLES);
    group.throughput(Throughput::Elements(FRAME_ROWS as u64));
    let uniform: Vec<Vec<f64>> = frames(3)
        .iter()
        .map(|v| vector_magnitudes(v).unwrap())
        .collect();
    // Nearly every value in the lowest of the 32 bins.
    let skewed: Vec<Vec<f64>> = uniform
        .iter()
        .map(|mags| mags.iter().map(|x| x.powi(16)).collect())
        .collect();
    for (name, inputs) in [("uniform", &uniform), ("skewed", &skewed)] {
        group.bench_function(name, |b| {
            bench_cycled(b, inputs, |mags| {
                let (min, max) = finite_min_max(mags);
                bin_counts(mags, min, max, 32)
            })
        });
    }
    group.finish();
}

fn bench_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("threshold_filter");
    for &n in &[100_000usize, 1_000_000] {
        let values: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &values, |b, v| {
            b.iter(|| threshold_filter(black_box(v), Predicate::AbsGreaterThan(0.9), 0));
        });
    }
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(200))
}

criterion_group! {
    name = kernels;
    config = configured();
    targets = bench_select, bench_magnitude, bench_dim_reduce, bench_histogram,
        bench_histogram_step, bench_threshold
}
criterion_main!(kernels);
