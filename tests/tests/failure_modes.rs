//! Failure-path behaviour: mis-wired workflows, contract violations and
//! group mismatches must fail *loudly and diagnosably*, never hang or
//! corrupt — the moral equivalent of MPI's abort-on-error discipline.
//!
//! The chaos section exercises the supervisor against seeded fault plans:
//! stalls degrade instead of hanging, kills restart under backoff with
//! golden outputs intact, and the same seed reproduces the same run.
//! `SB_CHAOS_SEED` overrides the default seed so CI can sweep several.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use sb_data::{lock, Buffer, Shape, Variable};
use smartblock::prelude::*;

fn tiny_source(step: u64) -> Variable {
    Variable::new(
        "x",
        Shape::linear("n", 4),
        Buffer::F64(vec![step as f64; 4]),
    )
    .unwrap()
}

/// A workflow whose transform asks for a variable that never exists: the
/// component returns a typed data error naming the missing array, and the
/// workflow surfaces it to the `run_with` caller.
#[test]
fn missing_array_is_a_diagnosable_error() {
    let hub = StreamHub::with_timeout(Duration::from_millis(300));
    let mut wf = Workflow::with_hub(hub);
    wf.add_source("gen", 1, "v.fp", |step| {
        (step < 1).then(|| tiny_source(step))
    });
    wf.add(1, Magnitude::new(("v.fp", "wrong_name"), ("m.fp", "y")));
    let err = wf.run_with(RunOptions::default()).unwrap_err();
    let msg = err.to_string();
    assert!(
        matches!(
            &err,
            WorkflowError::ComponentFailed {
                label,
                error: ComponentError::Data { .. },
                ..
            } if label == "magnitude"
        ),
        "{err:?}"
    );
    assert!(msg.contains("wrong_name"), "{msg}");
}

/// Magnitude on 1-d input violates its 2-d contract: a typed data error,
/// not a panic.
#[test]
fn wrong_rank_input_is_rejected() {
    let hub = StreamHub::with_timeout(Duration::from_millis(300));
    let mut wf = Workflow::with_hub(hub);
    wf.add_source("gen", 1, "v.fp", |step| {
        (step < 1).then(|| tiny_source(step))
    });
    wf.add(1, Magnitude::new(("v.fp", "x"), ("m.fp", "y")));
    let err = wf.run_with(RunOptions::default()).unwrap_err();
    assert!(
        matches!(
            &err,
            WorkflowError::ComponentFailed {
                error: ComponentError::Data { .. },
                ..
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("2-d"), "{err}");
}

/// Select with a quantity name the header does not contain.
#[test]
fn unknown_label_is_rejected() {
    let hub = StreamHub::with_timeout(Duration::from_millis(300));
    let mut wf = Workflow::with_hub(hub);
    wf.add_source("gen", 1, "v.fp", |step| {
        (step < 1).then(|| {
            Variable::new(
                "atoms",
                Shape::of(&[("n", 2), ("p", 2)]),
                Buffer::F64(vec![0.0; 4]),
            )
            .unwrap()
            .with_labels(1, &["a", "b"])
            .unwrap()
        })
    });
    wf.add(
        1,
        Select::new(("v.fp", "atoms"), 1, ["nonexistent"], ("s.fp", "y")),
    );
    let err = wf.run_with(RunOptions::default()).unwrap_err();
    assert!(
        matches!(
            &err,
            WorkflowError::ComponentFailed {
                error: ComponentError::Data { .. },
                ..
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("nonexistent"), "{err}");
}

/// The reason of a `PeerGone` refusal; anything else fails the test.
fn refusal<T: std::fmt::Debug>(result: Result<T, StreamError>) -> String {
    match result {
        Err(StreamError::PeerGone { reason, .. }) => reason,
        other => panic!("expected a refusal, got {other:?}"),
    }
}

/// Ranks of one writer group must agree on the group size. The hub refuses
/// the disagreeing rank, and that handle's next call returns the refusal,
/// typed, rather than panicking.
#[test]
fn writer_group_size_disagreement_panics() {
    let hub = StreamHub::new();
    let _w1 = hub.open_writer("s.fp", 0, 2, WriterOptions::default());
    let mut w2 = hub.open_writer("s.fp", 0, 3, WriterOptions::default());
    let msg = refusal(w2.begin_step());
    assert!(msg.contains("disagree on group size"), "{msg}");
}

/// Ranks of one writer group must agree on buffering policy; the
/// disagreeing rank's next call returns the hub's refusal.
#[test]
fn writer_options_disagreement_panics() {
    let hub = StreamHub::new();
    let _w1 = hub.open_writer("s.fp", 0, 2, WriterOptions::buffered(2));
    let mut w2 = hub.open_writer("s.fp", 1, 2, WriterOptions::rendezvous());
    let msg = refusal(w2.begin_step());
    assert!(msg.contains("disagree on options"), "{msg}");
}

/// Ranks of one reader group must agree on the group size; distinct groups
/// may differ. The disagreeing rank's next call returns the hub's refusal.
#[test]
fn reader_group_size_disagreement_panics() {
    let hub = StreamHub::new();
    let _r1 = hub.open_reader_grouped("s.fp", "g", 0, 2);
    let _other = hub.open_reader_grouped("s.fp", "h", 0, 5); // fine: new group
    let mut r2 = hub.open_reader_grouped("s.fp", "g", 1, 3);
    let msg = refusal(r2.begin_step());
    assert!(msg.contains("disagree on group size"), "{msg}");
}

/// Step protocol misuse on the writer side. Contract violations stay
/// panics — only peer failures (timeout, peer gone) became typed errors.
#[test]
fn writer_protocol_misuse_panics() {
    let hub = StreamHub::new();
    let mut w = hub.open_writer("s.fp", 0, 1, WriterOptions::default());
    // put outside a step
    let var = tiny_source(0);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        w.put_whole(var);
    }));
    assert!(r.is_err());
    // double begin
    w.begin_step().unwrap();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = w.begin_step();
    }));
    assert!(r.is_err());
}

/// Step protocol misuse on the reader side.
#[test]
fn reader_protocol_misuse_panics() {
    let hub = StreamHub::new();
    let mut r = hub.open_reader("s.fp", 0, 1);
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        r.end_step(); // without begin
    }));
    assert!(res.is_err());
}

/// A chunk whose region exceeds the declared global shape is rejected at
/// construction, before it can corrupt a stream.
#[test]
fn oversized_chunk_is_rejected_at_construction() {
    let meta = sb_data::VariableMeta::new("x", Shape::linear("n", 4), sb_data::DType::F64);
    let bad = sb_data::Chunk::new(
        meta,
        sb_data::Region::new(vec![2], vec![3]),
        Buffer::F64(vec![0.0; 3]),
    );
    assert!(bad.is_err());
}

/// Writer chunks that overlap produce a coverage error on read, not silent
/// double-counting.
#[test]
fn overlapping_writer_chunks_fail_the_read() {
    let hub = StreamHub::new();
    let mut w = hub.open_writer("s.fp", 0, 1, WriterOptions::default());
    let meta = sb_data::VariableMeta::new("x", Shape::linear("n", 4), sb_data::DType::F64);
    w.begin_step().unwrap();
    w.put(
        sb_data::Chunk::new(
            meta.clone(),
            sb_data::Region::new(vec![0], vec![3]),
            Buffer::F64(vec![1.0; 3]),
        )
        .unwrap(),
    );
    w.put(
        sb_data::Chunk::new(
            meta,
            sb_data::Region::new(vec![2], vec![2]),
            Buffer::F64(vec![2.0; 2]),
        )
        .unwrap(),
    );
    w.end_step().unwrap();
    let mut r = hub.open_reader("s.fp", 0, 1);
    r.begin_step().unwrap();
    let err = r.get_whole("x").unwrap_err().to_string();
    assert!(err.contains("overlap"), "{err}");
    r.end_step();
    w.close();
}

/// Writer chunks whose overlap exactly compensates a hole (sum of
/// coverage equals the box size) must still be rejected.
#[test]
fn compensating_overlap_and_hole_is_rejected() {
    let hub = StreamHub::new();
    let mut w = hub.open_writer("s.fp", 0, 1, WriterOptions::default());
    let meta = sb_data::VariableMeta::new("x", Shape::linear("n", 4), sb_data::DType::F64);
    w.begin_step().unwrap();
    // Chunks [0..2) and [1..3): 2 + 2 = 4 elements covered, but element 3
    // is a hole and element 1 is written twice.
    w.put(
        sb_data::Chunk::new(
            meta.clone(),
            sb_data::Region::new(vec![0], vec![2]),
            Buffer::F64(vec![1.0; 2]),
        )
        .unwrap(),
    );
    w.put(
        sb_data::Chunk::new(
            meta,
            sb_data::Region::new(vec![1], vec![2]),
            Buffer::F64(vec![2.0; 2]),
        )
        .unwrap(),
    );
    w.end_step().unwrap();
    let mut r = hub.open_reader("s.fp", 0, 1);
    r.begin_step().unwrap();
    let err = r.get_whole("x").unwrap_err().to_string();
    assert!(err.contains("overlap"), "{err}");
    r.end_step();
    w.close();
}

/// Combine's input shapes come from the streams, so a disagreement is a
/// typed data error through the supervisor, not a panic.
#[test]
fn combine_shape_mismatch_is_a_typed_data_error() {
    let hub = StreamHub::with_timeout(Duration::from_millis(500));
    let mut wf = Workflow::with_hub(hub);
    wf.add_source("gen-a", 1, "a.fp", |step| {
        (step < 1).then(|| tiny_source(step))
    });
    wf.add_source("gen-b", 1, "b.fp", |step| {
        (step < 1)
            .then(|| Variable::new("x", Shape::linear("n", 7), Buffer::F64(vec![0.0; 7])).unwrap())
    });
    wf.add(
        1,
        Combine::new(("a.fp", "x"), BinaryOp::Add, ("b.fp", "x"), ("c.fp", "y")),
    );
    let err = wf.run_with(RunOptions::default()).unwrap_err();
    assert!(
        matches!(
            &err,
            WorkflowError::ComponentFailed {
                error: ComponentError::Data { label, step: 0, .. },
                ..
            } if label == "combine"
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("shapes disagree"), "{err}");
    assert!(
        err.to_string()
            .ends_with("input \"a.fp:x, b.fp:x\": input shapes disagree: [n=4] f64 vs [n=7] f64"),
        "{err}"
    );
}

/// Every refused shape fails its step with the text the analyser gives
/// the same contract (SB006), naming the input stream and array.
#[test]
fn refused_shapes_fail_with_the_signatures_text() {
    fn var(sizes: &[usize], labels: Option<&[&str]>) -> Variable {
        let dims: Vec<(&str, usize)> = ["n", "p"].into_iter().zip(sizes.iter().copied()).collect();
        let shape = Shape::of(&dims);
        let data = Buffer::F64(vec![1.0; shape.total_len()]);
        let v = Variable::new("x", shape, data).unwrap();
        match labels {
            Some(labels) => v.with_labels(1, labels).unwrap(),
            None => v,
        }
    }
    type Add = fn(&mut Workflow);
    let ab: Option<&[&str]> = Some(&["a", "b"]);
    let cases: Vec<(Variable, &str, Add, &str)> = vec![
        (
            var(&[4], None),
            "magnitude",
            |wf| {
                wf.add(1, Magnitude::new(("v.fp", "x"), ("o.fp", "y")));
            },
            "expected a 2-d array, got 1-d",
        ),
        (
            var(&[4, 2], None),
            "histogram",
            |wf| {
                wf.add(1, Histogram::new(("v.fp", "x"), 2));
            },
            "expected a 1-d array, got 2-d",
        ),
        (
            var(&[4, 2], ab),
            "all-in-one",
            |wf| {
                wf.add(1, AllInOne::new(("v.fp", "x"), ["zz"], 2));
            },
            "dimension 1 carries no quantity named \"zz\" (available: [\"a\", \"b\"])",
        ),
        (
            var(&[4, 2], None),
            "select",
            |wf| {
                wf.add(1, Select::new(("v.fp", "x"), 1, ["a"], ("o.fp", "y")));
            },
            "dimension 1 carries no quantity named \"a\" (available: [])",
        ),
        (
            var(&[4, 2], None),
            "dim-reduce",
            |wf| {
                wf.add(1, DimReduce::new(("v.fp", "x"), 3, 1, ("o.fp", "y")));
            },
            "axis 3 is out of bounds for a 2-d array",
        ),
        (
            var(&[4, 2], None),
            "dim-reduce",
            |wf| {
                wf.add(1, DimReduce::new(("v.fp", "x"), 1, 1, ("o.fp", "y")));
            },
            "cannot fold dimension 1 into itself",
        ),
    ];
    for (input, label, add, text) in cases {
        let hub = StreamHub::with_timeout(Duration::from_millis(300));
        let mut wf = Workflow::with_hub(hub);
        wf.add_source("gen", 1, "v.fp", move |step| {
            (step < 1).then(|| input.clone())
        });
        add(&mut wf);
        let err = wf
            .run_with(RunOptions::new().with_validation(Validation::Skip))
            .unwrap_err();
        assert!(
            matches!(
                &err,
                WorkflowError::ComponentFailed {
                    error: ComponentError::Data { step: 0, .. },
                    ..
                }
            ),
            "{err:?}"
        );
        let want = format!("component {label:?}: step 0: input \"v.fp:x\": {text}");
        assert!(err.to_string().ends_with(&want), "{err}");
    }
}

/// A rank that does panic — here a user closure — is caught by the
/// supervisor and surfaced as a typed error.
#[test]
fn panicking_closure_is_caught_as_panicked() {
    let hub = StreamHub::with_timeout(Duration::from_millis(500));
    let mut wf = Workflow::with_hub(hub);
    wf.add_source("gen", 1, "v.fp", |step| {
        (step < 1).then(|| tiny_source(step))
    });
    wf.add_sink("boom", 1, "v.fp", |_, _| panic!("sink closure gave up"));
    let err = wf.run_with(RunOptions::default()).unwrap_err();
    assert!(
        matches!(
            &err,
            WorkflowError::ComponentFailed {
                label,
                error: ComponentError::Panicked { .. },
                ..
            } if label == "boom"
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("panicked"), "{err}");
}

/// A mis-wired workflow (a reader on a stream nobody writes) must fail
/// *before* launch: `run_with` returns the validation report immediately
/// instead of spawning ranks that block until the hub timeout.
#[test]
fn run_fails_fast_on_missing_writer() {
    // Deliberately use a workflow whose hub timeout is far longer than the
    // test budget: if run_with launched the ranks, the dangling reader
    // would stall for minutes. Fail-fast means we never get that far.
    let start = std::time::Instant::now();
    let mut wf = Workflow::new();
    wf.add(1, Magnitude::new(("never-written.fp", "x"), ("m.fp", "y")));
    wf.add_sink("sink", 1, "m.fp", |_, _| {});
    let err = wf.run_with(RunOptions::default()).unwrap_err();
    assert!(matches!(&err, WorkflowError::Invalid { .. }), "{err:?}");
    let msg = err.to_string();
    assert!(msg.contains("static validation"), "{msg}");
    assert!(msg.contains("never-written.fp"), "{msg}");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "validation must not launch the workflow"
    );
}

/// The same class of mis-wired workflow still launches under
/// `Validation::Skip` — the escape hatch for experiments the analyzer
/// cannot model — and dies at runtime with a typed error instead.
#[test]
fn skipped_validation_reaches_the_runtime_failure() {
    let hub = StreamHub::with_timeout(Duration::from_millis(150));
    let mut wf = Workflow::with_hub(hub);
    wf.add_source("gen", 1, "v.fp", |step| {
        (step < 1).then(|| tiny_source(step))
    });
    wf.add(1, Magnitude::new(("v.fp", "x"), ("m.fp", "y")));
    // m.fp has no reader (a warning) and the magnitude input is 1-d (a
    // runtime error the opaque source hides from the analyzer): the
    // unvalidated run reaches the runtime failure.
    let err = wf
        .run_with(RunOptions::new().with_validation(Validation::Skip))
        .unwrap_err();
    assert!(
        matches!(&err, WorkflowError::ComponentFailed { .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("2-d"), "{err}");
}

/// A reader on a stream nobody ever writes times out with a *typed* error
/// that names the stream — blocking paths no longer panic on timeout.
#[test]
fn dangling_reader_times_out_with_stream_name() {
    let hub = StreamHub::with_timeout(Duration::from_millis(150));
    let mut r = hub.open_reader("never-written.fp", 0, 1);
    let err = r.begin_step().unwrap_err();
    assert!(matches!(&err, StreamError::Timeout { .. }), "{err:?}");
    let msg = err.to_string();
    assert!(msg.contains("never-written.fp"), "{msg}");
    assert!(msg.contains("timed out"), "{msg}");
}

// ---------------------------------------------------------------------------
// Seeded chaos: deterministic fault injection against the supervisor.
// ---------------------------------------------------------------------------

use sb_integration_tests::chaos_coords as coords;
use sb_integration_tests::chaos_seed;

/// gen -> magnitude -> collect, with the collected per-step outputs handed
/// back so tests can compare them against a golden run.
fn chaos_pipeline(steps: u64) -> (Workflow, Arc<Mutex<Vec<Vec<f64>>>>) {
    chaos_pipeline_on(StreamHub::new(), steps)
}

/// [`chaos_pipeline`] on an explicit hub, so the same seeded plans run over
/// the in-proc backend and over a TCP broker.
fn chaos_pipeline_on(hub: Arc<StreamHub>, steps: u64) -> (Workflow, Arc<Mutex<Vec<Vec<f64>>>>) {
    let mut wf = Workflow::with_hub(hub);
    wf.add_source("gen", 1, "c.fp", move |step| {
        (step < steps).then(|| coords(step, 8))
    });
    let out = analysis_side(&mut wf);
    (wf, out)
}

/// Adds the magnitude -> collect tail of the chaos pipeline to `wf` and
/// returns the collected outputs. The cross-process tests use it alone,
/// with the source running in a `component_host` process instead.
fn analysis_side(wf: &mut Workflow) -> Arc<Mutex<Vec<Vec<f64>>>> {
    wf.add(1, Magnitude::new(("c.fp", "coords"), ("r.fp", "radii")));
    let out: Arc<Mutex<Vec<Vec<f64>>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&out);
    wf.add_sink("collect", 1, "r.fp", move |_s, vars| {
        lock(&sink).push(vars["radii"].data.to_f64_vec());
    });
    out
}

/// A tiny fixed-width binning of every collected value — the "golden
/// histogram" the chaos assertions compare across runs.
fn bin_histogram(rows: &[Vec<f64>]) -> Vec<u64> {
    let mut bins = vec![0u64; 16];
    for v in rows.iter().flatten() {
        bins[((v / 4.0) as usize).min(15)] += 1;
    }
    bins
}

/// A source that stalls (abandons its output without EOS) must not hang
/// the workflow: the downstream components time out with typed errors and
/// their Degrade policy lets the run finish with what was produced.
#[test]
fn stalled_source_degrades_downstream_instead_of_hanging() {
    let start = std::time::Instant::now();
    let (mut wf, out) = chaos_pipeline(4);
    wf.hub()
        .install_faults(FaultPlan::seeded(chaos_seed()).stall_at("gen", 1));
    wf.set_fault_policy("magnitude", FaultPolicy::degrade());
    wf.set_fault_policy("collect", FaultPolicy::degrade());
    let report = wf
        .run_with(RunOptions::new().with_hub_timeout(Duration::from_millis(300)))
        .unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "stall must resolve via timeout, not hang"
    );
    // The step committed before the stall made it all the way through.
    assert_eq!(lock(&out).len(), 1);
    // Magnitude is the component directly starved by the stalled stream;
    // it must be reported degraded (the sink may degrade too, or finish
    // cleanly off magnitude's forced end-of-stream — both are legal).
    assert!(
        report.degraded().contains(&"magnitude"),
        "degraded: {:?}",
        report.degraded()
    );
}

/// A killed transform under a Restart policy resumes where the last
/// complete step left off: the workflow completes, the report counts the
/// restart, and the output — values and histogram — matches the no-fault
/// golden run exactly.
#[test]
fn killed_transform_restarts_and_matches_golden_output() {
    let (golden_wf, golden_out) = chaos_pipeline(4);
    golden_wf.run_with(RunOptions::default()).unwrap();
    let golden = lock(&golden_out).clone();
    assert_eq!(golden.len(), 4);

    let (mut wf, out) = chaos_pipeline(4);
    wf.hub()
        .install_faults(FaultPlan::seeded(chaos_seed()).kill_at("magnitude", 1));
    wf.set_fault_policy(
        "magnitude",
        FaultPolicy::restart(2).with_backoff(Duration::from_millis(5)),
    );
    let report = wf.run_with(RunOptions::default()).unwrap();
    let mag = report.component("magnitude").unwrap();
    assert_eq!(mag.restarts(), 1, "exactly one restart: {:?}", mag.outcome);
    assert!(mag.outcome.is_completed(), "{:?}", mag.outcome);
    let got = lock(&out).clone();
    assert_eq!(got, golden, "restart must not lose or duplicate steps");
    assert_eq!(bin_histogram(&got), bin_histogram(&golden));
}

/// The default Abort policy propagates the injected fault as a typed
/// `ComponentError::Injected` to the `run_with` caller.
#[test]
fn abort_policy_surfaces_injected_fault_to_caller() {
    let (wf, _out) = chaos_pipeline(3);
    wf.hub()
        .install_faults(FaultPlan::seeded(chaos_seed()).kill_at("magnitude", 1));
    let err = wf.run_with(RunOptions::default()).unwrap_err();
    let msg = err.to_string();
    match &err {
        WorkflowError::ComponentFailed {
            label,
            attempts,
            error,
        } => {
            assert_eq!(label, "magnitude");
            assert_eq!(*attempts, 1);
            assert!(
                matches!(error, ComponentError::Injected { .. }),
                "{error:?}"
            );
        }
        other => panic!("expected ComponentFailed, got {other:?}"),
    }
    assert!(msg.contains("injected fault"), "{msg}");
}

/// Two invocations of the same seeded fault plan are byte-for-byte
/// reproducible: same restart counts, same collected values, same final
/// histogram.
#[test]
fn seeded_chaos_runs_are_reproducible() {
    let run = |seed: u64| -> (u32, Vec<Vec<f64>>) {
        let (mut wf, out) = chaos_pipeline(4);
        wf.hub().install_faults(
            FaultPlan::seeded(seed)
                .delay_jitter("gen", Duration::from_millis(2))
                .kill_at("magnitude", 2),
        );
        wf.set_fault_policy(
            "magnitude",
            FaultPolicy::restart(3).with_backoff(Duration::from_millis(5)),
        );
        let report = wf.run_with(RunOptions::default()).unwrap();
        let got = lock(&out).clone();
        (report.restarts(), got)
    };
    let seed = chaos_seed();
    let (restarts_a, got_a) = run(seed);
    let (restarts_b, got_b) = run(seed);
    assert_eq!(restarts_a, restarts_b, "restart counts must reproduce");
    assert_eq!(got_a, got_b, "collected outputs must reproduce");
    assert_eq!(bin_histogram(&got_a), bin_histogram(&got_b));
    assert!(restarts_a >= 1, "the kill directive must actually fire");
}

/// A killed simulation under a Restart policy replays from its seed: the
/// restarted ranks re-run the substeps of the steps already published,
/// publish the step that was killed, and the histograms come out bit-equal
/// to an unfaulted run's.
#[test]
fn killed_simulation_restarts_and_replays_to_the_clean_run() {
    use smartblock::workflows::{gromacs_workflow, PresetScale};
    let scale = PresetScale {
        sim_ranks: 2,
        analysis_ranks: vec![1, 1],
        io_steps: 4,
        substeps: 3,
        bins: 8,
        ..PresetScale::default()
    }
    .size("chains", 4)
    .size("len", 6);
    let bits = |hists: &[HistogramResult]| -> Vec<(Vec<u64>, u64, u64)> {
        hists
            .iter()
            .map(|h| (h.counts.clone(), h.min.to_bits(), h.max.to_bits()))
            .collect()
    };

    let (golden_wf, golden_out) = gromacs_workflow(&scale);
    golden_wf.run_with(RunOptions::default()).unwrap();
    let golden = lock(&golden_out).clone();
    assert_eq!(golden.len(), scale.io_steps as usize);

    let (mut wf, out) = gromacs_workflow(&scale);
    wf.hub()
        .install_faults(FaultPlan::seeded(chaos_seed()).kill_at("gromacs", 2));
    wf.set_fault_policy(
        "gromacs",
        FaultPolicy::restart(2).with_backoff(Duration::from_millis(5)),
    );
    let report = wf.run_with(RunOptions::default()).unwrap();
    assert!(
        report.restarts() >= 1,
        "the kill directive must actually fire"
    );
    let sim = report.component("gromacs").unwrap();
    assert!(sim.outcome.is_completed(), "{:?}", sim.outcome);
    assert_eq!(sim.stats.steps, scale.io_steps, "no step lost or repeated");
    assert_eq!(bits(&lock(&out)), bits(&golden));
}

// ---------------------------------------------------------------------------
// Chaos across the remote backends: the same seeded plans behind a loopback
// TCP broker and a same-host `shm://` broker, and component and broker
// processes that really die.
// ---------------------------------------------------------------------------

use sb_stream::tcp::TcpBroker;
use sb_stream::ShmBroker;

/// A fresh rendezvous directory for an shm broker (no tempfile crate in
/// tree; pid plus a counter keeps parallel test binaries apart).
fn shm_scratch(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sb-chaos-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn shm_broker(tag: &str) -> ShmBroker {
    let dir = shm_scratch(tag);
    ShmBroker::bind(dir.to_str().unwrap()).unwrap()
}

/// One seeded kill/restart run of the chaos pipeline on `hub`: installs
/// the kill-at-step-1 plan, rides it out under a Restart policy, and
/// returns the restart count plus collected outputs.
fn seeded_kill_restart_run(hub: Arc<StreamHub>) -> (u32, Vec<Vec<f64>>) {
    let (mut wf, out) = chaos_pipeline_on(hub, 4);
    wf.hub()
        .install_faults(FaultPlan::seeded(chaos_seed()).kill_at("magnitude", 1));
    wf.set_fault_policy(
        "magnitude",
        FaultPolicy::restart(2).with_backoff(Duration::from_millis(5)),
    );
    let report = wf.run_with(RunOptions::default()).unwrap();
    let mag = report.component("magnitude").unwrap();
    assert!(mag.outcome.is_completed(), "{:?}", mag.outcome);
    let got = lock(&out).clone();
    (report.restarts(), got)
}

/// Asserts a remote backend's seeded kill/restart outcome matches in-proc:
/// same restart count, same collected values, same histogram — the
/// supervisor cannot tell the backends apart.
fn assert_backend_reproduces_chaos(remote: Arc<StreamHub>, fabric: &str) {
    let (inproc_restarts, inproc_out) = seeded_kill_restart_run(StreamHub::new());
    let (remote_restarts, remote_out) = seeded_kill_restart_run(remote);

    assert!(
        inproc_restarts >= 1,
        "the kill directive must actually fire"
    );
    assert_eq!(
        inproc_restarts, remote_restarts,
        "restart counts must agree across backends ({fabric})"
    );
    assert_eq!(
        inproc_out, remote_out,
        "collected outputs must agree across backends ({fabric})"
    );
    assert_eq!(bin_histogram(&inproc_out), bin_histogram(&remote_out));
}

/// The kill/restart plan behind a loopback TCP broker reproduces the
/// in-proc outcome exactly.
#[test]
fn tcp_backend_reproduces_inproc_chaos_outcomes() {
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    assert_backend_reproduces_chaos(StreamHub::connect(&broker.url()).unwrap(), "tcp");
}

/// The same seeded plan behind a same-host `shm://` broker reproduces the
/// in-proc outcome exactly.
#[test]
fn shm_backend_reproduces_inproc_chaos_outcomes() {
    let broker = shm_broker("kill");
    assert_backend_reproduces_chaos(StreamHub::connect(&broker.url()).unwrap(), "shm");
}

/// Compression must be invisible to the supervisor: clients that negotiate
/// v2 + LZ frames under the same seeded kill plan reproduce the in-proc
/// restart count, collected values and histogram bit-for-bit. A codec that
/// survives mid-step kills and restarts is a codec that cannot corrupt.
#[test]
fn compressed_tcp_backend_reproduces_inproc_chaos_outcomes() {
    let run = |hub: Arc<StreamHub>| {
        let (mut wf, out) = chaos_pipeline_on(hub, 4);
        wf.hub()
            .install_faults(FaultPlan::seeded(chaos_seed()).kill_at("magnitude", 1));
        wf.set_fault_policy(
            "magnitude",
            FaultPolicy::restart(2).with_backoff(Duration::from_millis(5)),
        );
        let report = wf.run_with(RunOptions::default()).unwrap();
        let mag = report.component("magnitude").unwrap();
        assert!(mag.outcome.is_completed(), "{:?}", mag.outcome);
        let got = lock(&out).clone();
        (report.restarts(), got)
    };
    let (inproc_restarts, inproc_out) = run(StreamHub::new());
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    let lz = sb_stream::TcpOptions::default().with_compression(sb_stream::Compression::Lz);
    let (lz_restarts, lz_out) = run(StreamHub::connect_with(&broker.url(), lz).unwrap());

    assert!(
        inproc_restarts >= 1,
        "the kill directive must actually fire"
    );
    assert_eq!(
        inproc_restarts, lz_restarts,
        "restart counts must agree with compression on the wire"
    );
    assert_eq!(
        inproc_out, lz_out,
        "collected outputs must agree with compression on the wire"
    );
    assert_eq!(bin_histogram(&inproc_out), bin_histogram(&lz_out));
}

/// One seeded stall/degrade run of the chaos pipeline on `hub`: the
/// committed prefix and whether magnitude degraded.
fn seeded_stall_run(hub: Arc<StreamHub>) -> (Vec<Vec<f64>>, bool) {
    let (mut wf, out) = chaos_pipeline_on(hub, 4);
    wf.hub()
        .install_faults(FaultPlan::seeded(chaos_seed()).stall_at("gen", 1));
    wf.set_fault_policy("magnitude", FaultPolicy::degrade());
    wf.set_fault_policy("collect", FaultPolicy::degrade());
    let start = std::time::Instant::now();
    let report = wf
        .run_with(RunOptions::new().with_hub_timeout(Duration::from_secs(120)))
        .unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "a noisy disconnect must surface promptly, not wait out the timeout"
    );
    let degraded = report.degraded().contains(&"magnitude");
    let collected = lock(&out).clone();
    (collected, degraded)
}

/// The stall plan over TCP degrades exactly like in-proc: the noisy
/// disconnect crosses the wire, downstream observes PeerGone promptly, and
/// the Degrade policy salvages the committed prefix on both backends.
#[test]
fn tcp_backend_reproduces_inproc_stall_degradation() {
    let (inproc_out, inproc_degraded) = seeded_stall_run(StreamHub::new());
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    let (tcp_out, tcp_degraded) = seeded_stall_run(StreamHub::connect(&broker.url()).unwrap());

    assert_eq!(inproc_out.len(), 1, "the step before the stall survives");
    assert_eq!(inproc_out, tcp_out, "backends disagree on salvaged output");
    assert!(inproc_degraded && tcp_degraded);
}

/// The stall plan over the same-host fabric degrades the same way: the
/// noisy disconnect crosses the socket as a poison verb and PeerGone
/// surfaces promptly.
#[test]
fn shm_backend_reproduces_inproc_stall_degradation() {
    let (inproc_out, inproc_degraded) = seeded_stall_run(StreamHub::new());
    let broker = shm_broker("stall");
    let (shm_out, shm_degraded) = seeded_stall_run(StreamHub::connect(&broker.url()).unwrap());

    assert_eq!(inproc_out.len(), 1, "the step before the stall survives");
    assert_eq!(inproc_out, shm_out, "backends disagree on salvaged output");
    assert!(inproc_degraded && shm_degraded);
}

/// Degrade detaches the reader group the killed component joined — its
/// label: the writer's other group sees every step and the writer, whose
/// one-step queue a dead group would fill, completes long before the hub
/// timeout.
#[test]
fn degrade_detaches_the_group_the_component_joined() {
    use smartblock::launch::SimCode;
    use smartblock::workflows::Simulation;
    const STEPS: u64 = 6;
    let mut wf = Workflow::new();
    wf.add(
        1,
        Simulation::new(SimCode::Gromacs)
            .param("chains", 4)
            .param("len", 4)
            .param("steps", STEPS)
            .param("interval", 1),
    );
    wf.add(
        1,
        Magnitude::new(("gromacs.fp", "coords"), ("radii.fp", "r")),
    );
    wf.add(
        1,
        Magnitude::new(("gromacs.fp", "coords"), ("kept.fp", "r")),
    );
    wf.add(1, Histogram::new(("radii.fp", "r"), 4));
    let kept = Histogram::new(("kept.fp", "r"), 4);
    let kept_results = kept.results_handle();
    wf.add(1, kept);
    wf.hub()
        .install_faults(FaultPlan::seeded(chaos_seed()).kill_at("magnitude", 1));
    wf.set_writer_options("gromacs", WriterOptions::buffered(1));
    wf.set_fault_policy("magnitude", FaultPolicy::degrade());

    let start = std::time::Instant::now();
    let report = wf
        .run_with(RunOptions::new().with_hub_timeout(Duration::from_secs(120)))
        .unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "the writer waited on the dead group"
    );
    assert_eq!(report.degraded(), ["magnitude"]);
    assert_eq!(report.component("magnitude-2").unwrap().stats.steps, STEPS);
    assert_eq!(lock(&kept_results).len() as u64, STEPS);
    assert!(report.component("gromacs").unwrap().outcome.is_completed());
}

/// Runs `wf` — some component of which is about to stall — on a hub whose
/// timeout is far beyond the assertion bound, so only a noisy disconnect
/// can pass, and checks that every `starved` component (Degrade policy) was
/// failed by `PeerGone`.
fn assert_stall_starves_with_peer_gone(mut wf: Workflow, starved: &[&str]) {
    for &label in starved {
        wf.set_fault_policy(label, FaultPolicy::degrade());
    }
    let start = std::time::Instant::now();
    let report = wf
        .run_with(RunOptions::new().with_hub_timeout(Duration::from_secs(120)))
        .unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "a noisy disconnect must surface promptly, not wait out the timeout"
    );
    for label in starved {
        let outcome = &report.component(label).unwrap().outcome;
        assert!(
            matches!(
                outcome,
                ComponentOutcome::Degraded {
                    error: ComponentError::Stream {
                        source: StreamError::PeerGone { .. },
                        ..
                    }
                }
            ),
            "{label}: {outcome:?}"
        );
    }
}

/// A stalled Fork disconnects every branch noisily: both readers fail with
/// a prompt `PeerGone`, and the step committed before the stall reached
/// both.
#[test]
fn stalled_fork_starves_both_branches_with_peer_gone() {
    let mut wf = Workflow::new();
    wf.add_source("gen", 1, "c.fp", |step| (step < 4).then(|| coords(step, 8)));
    wf.add(1, Fork::new("c.fp", ["a.fp", "b.fp"]));
    let seen: Arc<Mutex<Vec<(&str, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    for (label, stream) in [("left", "a.fp"), ("right", "b.fp")] {
        let seen = Arc::clone(&seen);
        wf.add_sink(label, 1, stream, move |step, _| {
            lock(&seen).push((label, step))
        });
    }
    wf.hub()
        .install_faults(FaultPlan::seeded(chaos_seed()).stall_at("fork", 1));
    assert_stall_starves_with_peer_gone(wf, &["left", "right"]);
    let mut seen = lock(&seen).clone();
    seen.sort();
    assert_eq!(seen, [("left", 0), ("right", 0)]);
}

/// A stalled Combine disconnects its output noisily too.
#[test]
fn stalled_combine_starves_downstream_with_peer_gone() {
    let mut wf = Workflow::new();
    for (label, stream) in [("gen-a", "a.fp"), ("gen-b", "b.fp")] {
        wf.add_source(label, 1, stream, |step| {
            (step < 4).then(|| tiny_source(step))
        });
    }
    wf.add(
        1,
        Combine::new(("a.fp", "x"), BinaryOp::Add, ("b.fp", "x"), ("c.fp", "y")),
    );
    let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    wf.add_sink("collect", 1, "c.fp", move |step, _| lock(&sink).push(step));
    wf.hub()
        .install_faults(FaultPlan::seeded(chaos_seed()).stall_at("combine", 1));
    assert_stall_starves_with_peer_gone(wf, &["collect"]);
    assert_eq!(*lock(&seen), [0]);
}

/// Regression for the EOS race: a writer vanishing *between* `end_step`
/// and EOS used to leave blocked readers waiting out the whole hub
/// timeout. Committed steps must still be served, and the step that can
/// never commit must fail with a prompt `PeerGone` — on both backends.
#[test]
fn abandoned_writer_after_end_step_surfaces_peer_gone_promptly() {
    let check = |hub: Arc<StreamHub>| {
        let mut w = hub.open_writer("race.fp", 0, 1, WriterOptions::default());
        w.begin_step().unwrap();
        w.put_whole(tiny_source(0));
        w.end_step().unwrap();
        w.disconnect(); // gone for good, with no EOS — the race window

        let mut r = hub.open_reader("race.fp", 0, 1);
        let start = std::time::Instant::now();
        r.begin_step().unwrap();
        assert_eq!(r.get_whole("x").unwrap().data.to_f64_vec(), vec![0.0; 4]);
        r.end_step();
        let err = r.begin_step().unwrap_err();
        assert!(matches!(&err, StreamError::PeerGone { .. }), "{err:?}");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "PeerGone must be prompt, not a hub timeout"
        );
    };
    // Hub timeouts far beyond the assertion bound: only the fail-fast path
    // can pass this test.
    check(StreamHub::with_timeout(Duration::from_secs(120)));
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    let hub = StreamHub::connect(&broker.url()).unwrap();
    hub.set_wait_timeout(Duration::from_secs(120));
    check(hub);
    let shm = shm_broker("race");
    let hub = StreamHub::connect(&shm.url()).unwrap();
    hub.set_wait_timeout(Duration::from_secs(120));
    check(hub);
}

/// Spawns the `component_host` helper: the chaos source in its own OS
/// process, connected over TCP or shm by URL scheme, optionally dying
/// mid-run.
fn spawn_host(url: &str, steps: u64, abort_at: Option<u64>) -> std::process::Child {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_component_host"));
    cmd.arg(url).arg(steps.to_string());
    if let Some(s) = abort_at {
        cmd.arg(format!("abort-at={s}"));
    }
    cmd.stderr(std::process::Stdio::null());
    cmd.spawn().expect("spawn component_host")
}

/// A component *process* dying mid-step degrades its downstream exactly
/// like an in-proc stall: the broker turns the peer's death into a noisy
/// disconnect (a socket EOF on either fabric), PeerGone surfaces promptly,
/// and the Degrade policy keeps the step committed before the death.
fn assert_killed_process_degrades(broker_hub: Arc<StreamHub>, url: &str) {
    let start = std::time::Instant::now();
    let mut child = spawn_host(url, 4, Some(1));

    let mut wf = Workflow::with_hub(broker_hub);
    let out = analysis_side(&mut wf);
    wf.set_fault_policy("magnitude", FaultPolicy::degrade());
    wf.set_fault_policy("collect", FaultPolicy::degrade());
    // The source lives in the child process, so this slice's wiring
    // dangles by design.
    let report = wf
        .run_with(RunOptions::new().with_validation(Validation::Skip))
        .unwrap();

    let status = child.wait().unwrap();
    assert!(!status.success(), "the host process must have died mid-run");
    assert_eq!(lock(&out).len(), 1, "the committed step survives the death");
    assert!(
        report.degraded().contains(&"magnitude"),
        "degraded: {:?}",
        report.degraded()
    );
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "a dead process must surface as prompt PeerGone, not a hub timeout"
    );
}

#[test]
fn killed_component_process_degrades_downstream() {
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    assert_killed_process_degrades(Arc::clone(broker.hub()), &broker.url());
}

#[test]
fn killed_component_process_degrades_downstream_over_shm() {
    let broker = shm_broker("pkill");
    assert_killed_process_degrades(Arc::clone(broker.hub()), &broker.url());
}

/// A component process dying mid-step is *restartable*: a process-level
/// supervisor (here, the test) clears the stream's gone-writer mark with
/// [`StreamHub::prepare_restart`] and respawns the process, which replays
/// the uncommitted step; downstream restart policies ride out the gap. The
/// final output matches a no-fault in-proc golden run exactly.
fn assert_killed_process_restarts_to_golden(broker_hub: Arc<StreamHub>, url: String) {
    let (golden_wf, golden_out) = chaos_pipeline(4);
    golden_wf.run_with(RunOptions::default()).unwrap();
    let golden = lock(&golden_out).clone();
    assert_eq!(golden.len(), 4);

    let respawn_hub = Arc::clone(&broker_hub);
    let respawner = std::thread::spawn(move || {
        let mut child = spawn_host(&url, 4, Some(1));
        let status = child.wait().unwrap();
        assert!(!status.success(), "first incarnation must die");
        // What a real process launcher would do before relaunching: reopen
        // the writer registration and clear the gone-writer mark.
        respawn_hub.prepare_restart(&[], &["c.fp".to_string()]);
        let status = spawn_host(&url, 4, None).wait().unwrap();
        assert!(status.success(), "second incarnation must finish cleanly");
    });

    let mut wf = Workflow::with_hub(broker_hub);
    let out = analysis_side(&mut wf);
    // Magnitude sees PeerGone between the death and the respawn; a patient
    // restart policy rides the gap out.
    wf.set_fault_policy(
        "magnitude",
        FaultPolicy::restart(50).with_backoff(Duration::from_millis(100)),
    );
    let report = wf
        .run_with(RunOptions::new().with_validation(Validation::Skip))
        .unwrap();
    respawner.join().unwrap();

    let mag = report.component("magnitude").unwrap();
    assert!(mag.outcome.is_completed(), "{:?}", mag.outcome);
    assert_eq!(
        lock(&out).clone(),
        golden,
        "the replayed step must be neither lost nor duplicated"
    );
}

#[test]
fn killed_component_process_restarts_and_replays_the_step() {
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    assert_killed_process_restarts_to_golden(Arc::clone(broker.hub()), broker.url());
}

#[test]
fn killed_component_process_restarts_and_replays_the_step_over_shm() {
    let broker = shm_broker("replay");
    assert_killed_process_restarts_to_golden(Arc::clone(broker.hub()), broker.url());
}

/// What the kernel now guarantees on `shm://` (ROADMAP 4c): a component
/// process SIGKILLed mid-run hands every broker resource back — its
/// sessions end, the rendezvous directory holds the listening socket and
/// nothing else — and shutdown removes the directory itself.
#[test]
fn sigkilled_component_process_leaves_nothing_behind_over_shm() {
    use sb_integration_tests::wait_until;
    let mut broker = shm_broker("sigkill");
    let dir = broker.dir().to_path_buf();
    // An endless source: it is still streaming whenever the kill lands.
    let mut child = spawn_host(&broker.url(), u64::MAX, None);

    let mut wf = Workflow::with_hub(Arc::clone(broker.hub()));
    let out = analysis_side(&mut wf);
    wf.set_fault_policy("magnitude", FaultPolicy::degrade());
    wf.set_fault_policy("collect", FaultPolicy::degrade());
    let killer = {
        let out = Arc::clone(&out);
        std::thread::spawn(move || {
            wait_until("two steps to arrive", || lock(&out).len() >= 2);
            child.kill().expect("SIGKILL the host process");
            child.wait().unwrap()
        })
    };
    let report = wf
        .run_with(RunOptions::new().with_validation(Validation::Skip))
        .unwrap();
    assert!(!killer.join().unwrap().success());
    assert!(
        report.degraded().contains(&"magnitude"),
        "degraded: {:?}",
        report.degraded()
    );

    wait_until("the dead client's sessions to end", || {
        broker.active_connections() == 0
    });
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["broker.sock"], "rendezvous directory contents");
    broker.shutdown();
    assert!(!dir.exists(), "{} survived shutdown", dir.display());
}

/// Spawns `component_host serve ADDR` and returns the broker process with
/// the URL it announced.
fn spawn_broker(addr: &str) -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_component_host"))
        .args(["serve", addr])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn component_host broker");
    let mut url = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut url)
        .unwrap();
    (child, url.trim().to_string())
}

/// Kill the **broker**, not a component (ROADMAP 4d): a reader blocked in
/// `begin_step`, a writer blocked in `end_step` on a full queue (a remote
/// step waits at the broker for buffer space) and a rendezvous writer
/// blocked in `end_step` all see the broker's death as
/// `PeerGone` — at once, from the socket EOF, so well within the read grace
/// and nowhere near the 120 s hub timeout.
fn assert_killed_broker_fails_every_blocked_client(addr: &str) {
    use sb_integration_tests::wait_until;
    use std::time::Instant;
    /// Runs `f` — a call that blocks at the broker — on a thread of its own
    /// and returns the error it ended with, and when.
    fn blocked(
        hub: &Arc<StreamHub>,
        f: impl FnOnce(&StreamHub) -> StreamError + Send + 'static,
    ) -> std::thread::JoinHandle<(StreamError, Instant)> {
        let hub = Arc::clone(hub);
        std::thread::spawn(move || (f(&hub), Instant::now()))
    }
    let (mut broker, url) = spawn_broker(addr);
    let grace = Duration::from_secs(5);
    let options = sb_stream::TcpOptions::default().with_read_grace(grace);
    let hub = StreamHub::connect_with(&url, options).unwrap();
    hub.set_wait_timeout(Duration::from_secs(120));

    let clients = [
        blocked(&hub, |hub| {
            let mut r = hub.open_reader("quiet.fp", 0, 1);
            r.begin_step().unwrap_err()
        }),
        blocked(&hub, |hub| {
            let mut w = hub.open_writer("full.fp", 0, 1, WriterOptions::buffered(1));
            w.begin_step().unwrap();
            w.put_whole(tiny_source(0));
            w.end_step().unwrap();
            w.begin_step().unwrap();
            w.put_whole(tiny_source(1));
            let err = w.end_step().unwrap_err();
            w.abandon();
            err
        }),
        blocked(&hub, |hub| {
            let mut w = hub.open_writer("rv.fp", 0, 1, WriterOptions::rendezvous());
            w.begin_step().unwrap();
            w.put_whole(tiny_source(0));
            let err = w.end_step().unwrap_err();
            w.abandon();
            err
        }),
    ];
    // All three are parked at the broker once it knows the quiet stream and
    // both writers' steps (the broker is alive, so these are its answers).
    wait_until("every client to block at the broker", || {
        let committed = |name| hub.metrics(name).map_or(0, |m| m.steps_committed);
        hub.stream_names().iter().any(|n| n == "quiet.fp")
            && committed("full.fp") == 1
            && committed("rv.fp") == 1
    });
    std::thread::sleep(Duration::from_millis(100));

    broker.kill().expect("SIGKILL the broker");
    broker.wait().unwrap();
    let killed = Instant::now();
    for client in clients {
        let (err, failed) = client.join().unwrap();
        assert!(matches!(&err, StreamError::PeerGone { .. }), "{err:?}");
        assert!(
            failed.duration_since(killed) < grace,
            "PeerGone took {:?} after the broker died",
            failed.duration_since(killed)
        );
    }
}

#[test]
fn killed_broker_process_fails_blocked_clients_with_peer_gone() {
    assert_killed_broker_fails_every_blocked_client("127.0.0.1:0");
}

#[test]
fn killed_broker_process_fails_blocked_clients_with_peer_gone_over_shm() {
    let dir = shm_scratch("bkill");
    let url = format!("shm://{}", dir.display());
    assert_killed_broker_fails_every_blocked_client(&url);
    // The killed broker left its socket file behind; the next one reclaims
    // it rather than being locked out of the directory.
    drop(ShmBroker::bind(&url).expect("reclaim the dead broker's socket"));
    assert!(!dir.exists());
}
