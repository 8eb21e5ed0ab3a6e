//! The static dataflow analyzer: the paper's three workflows must
//! validate clean, and every class of mis-wiring the analyzer models must
//! be rejected *before launch* with a typed, readable issue.

use std::time::Duration;

use sb_stream::StreamHub;
use smartblock::launch::SimCode;
use smartblock::workflows::{
    gromacs_workflow, gtcp_workflow, lammps_aio_workflow, lammps_workflow, PresetScale, Simulation,
};
use smartblock::{
    AllInOne, AnalysisIssue, BinaryOp, Combine, DimReduce, Histogram, Magnitude, RunOptions,
    Select, Severity, Validation, WiringIssue, Workflow, WorkflowPlan,
};

fn errors(wf: &Workflow) -> Vec<AnalysisIssue> {
    wf.validate()
        .into_iter()
        .filter(|i| i.severity() == Severity::Error)
        .collect()
}

// ---------------------------------------------------------------- clean --

/// Figures 5–7: all three paper workflows pass static analysis.
#[test]
fn paper_workflows_validate_clean() {
    let scale = PresetScale::default();
    let (wf, _) = lammps_workflow(&scale);
    assert!(wf.validate().is_empty(), "{:?}", wf.validate());
    let scale = PresetScale {
        analysis_ranks: vec![2, 2, 2, 1],
        ..PresetScale::default()
    };
    let (wf, _) = gtcp_workflow(&scale);
    assert!(wf.validate().is_empty(), "{:?}", wf.validate());
    let (wf, _) = gromacs_workflow(&PresetScale::default());
    assert!(wf.validate().is_empty(), "{:?}", wf.validate());
    let (wf, _) = lammps_aio_workflow(&PresetScale::default());
    assert!(wf.validate().is_empty(), "{:?}", wf.validate());
}

/// A Fig. 8-style launch script assembles into a clean workflow, and the
/// propagated specs catch nothing because the wiring is right.
#[test]
fn fig8_style_script_validates_clean() {
    let script = r#"
        aprun -n 4 gtcp slices=16 points=32 steps=2 &
        aprun -n 3 select gtcp.fp plasma 2 psel.fp pperp P_perp &
        aprun -n 2 dim-reduce psel.fp pperp 2 1 dr1.fp flat2 &
        aprun -n 2 dim-reduce dr1.fp flat2 0 1 dr2.fp flat1 &
        aprun -n 1 histogram dr2.fp flat1 16 &
        wait
    "#;
    let wf = WorkflowPlan::from_script(script)
        .unwrap()
        .workflow(StreamHub::new(), &[])
        .unwrap();
    let issues = wf.validate();
    assert!(issues.is_empty(), "{issues:?}");
}

// ------------------------------------------------------------ contracts --

/// Selecting a quantity the producer's header does not declare.
#[test]
fn unknown_select_label_is_rejected_statically() {
    let mut wf = Workflow::new();
    wf.add(2, Simulation::new(SimCode::Gtcp).param("steps", 1));
    wf.add(
        1,
        Select::new(("gtcp.fp", "plasma"), 2, ["Q_perp"], ("psel.fp", "q")),
    );
    wf.add(1, Histogram::new(("psel.fp", "q"), 4));
    let errs = errors(&wf);
    assert_eq!(errs.len(), 1, "{errs:?}");
    let AnalysisIssue::Contract {
        component, error, ..
    } = &errs[0]
    else {
        panic!("expected a contract issue, got {:?}", errs[0]);
    };
    assert_eq!(component, "select");
    let msg = error.to_string();
    assert!(msg.contains("Q_perp"), "{msg}");
    assert!(
        msg.contains("P_perp"),
        "available labels must be listed: {msg}"
    );
    // And run_with refuses to launch it.
    let err = wf.run_with(RunOptions::default()).unwrap_err().to_string();
    assert!(err.contains("static validation"), "{err}");
}

/// All-in-one selecting by name along a dimension whose header a
/// Dim-Reduce dropped: refused statically, as a Select would be.
#[test]
fn all_in_one_on_an_unlabelled_dimension_is_rejected_statically() {
    let mut wf = Workflow::new();
    wf.add(2, Simulation::new(SimCode::Gtcp).param("steps", 1));
    wf.add(
        1,
        DimReduce::new(("gtcp.fp", "plasma"), 2, 1, ("dr.fp", "flat")),
    );
    wf.add(1, AllInOne::new(("dr.fp", "flat"), ["P_perp"], 4));
    let errs = errors(&wf);
    assert_eq!(errs.len(), 1, "{errs:?}");
    let AnalysisIssue::Contract {
        component, error, ..
    } = &errs[0]
    else {
        panic!("expected a contract issue, got {:?}", errs[0]);
    };
    assert_eq!(component, "all-in-one");
    assert_eq!(errs[0].lint().id, "SB006");
    assert_eq!(
        error.to_string(),
        "dimension 1 carries no quantity named \"P_perp\" (available: [])"
    );
}

/// Dim-Reduce folding an axis the array does not have.
#[test]
fn dim_reduce_of_an_out_of_range_axis_is_rejected_statically() {
    let mut wf = Workflow::new();
    wf.add(2, Simulation::new(SimCode::Gtcp).param("steps", 1));
    wf.add(
        1,
        DimReduce::new(("gtcp.fp", "plasma"), 7, 1, ("dr.fp", "flat")),
    );
    wf.add(1, Histogram::new(("dr.fp", "flat"), 4));
    let errs = errors(&wf);
    assert_eq!(errs.len(), 1, "{errs:?}");
    let msg = errs[0].to_string();
    assert!(msg.contains("dim-reduce"), "{msg}");
    assert!(msg.contains("axis 7"), "{msg}");
}

/// Combine joining two statically different global shapes.
#[test]
fn combine_shape_mismatch_is_rejected_statically() {
    let mut wf = Workflow::new();
    // 36-atom and 64-atom coordinate sets can never join element-wise.
    wf.add(
        1,
        Simulation::new(SimCode::Gromacs)
            .param("chains", 6)
            .param("len", 6)
            .param("steps", 1),
    );
    wf.add(
        1,
        Simulation::new(SimCode::Gromacs)
            .param("chains", 8)
            .param("len", 8)
            .param("steps", 1)
            .on_stream("big.fp"),
    );
    wf.add(
        1,
        Combine::new(
            ("gromacs.fp", "coords"),
            BinaryOp::Sub,
            ("big.fp", "coords"),
            ("d.fp", "diff"),
        ),
    );
    wf.add(1, Histogram::new(("d.fp", "diff"), 4));
    let errs = errors(&wf);
    assert_eq!(errs.len(), 1, "{errs:?}");
    let msg = errs[0].to_string();
    assert!(msg.contains("combine"), "{msg}");
    assert!(msg.contains("36"), "{msg}");
    assert!(msg.contains("64"), "{msg}");
}

/// Histogram on input the analyzer knows is 2-d.
#[test]
fn histogram_rank_mismatch_is_rejected_statically() {
    let mut wf = Workflow::new();
    wf.add(2, Simulation::new(SimCode::Gromacs).param("steps", 1));
    wf.add(1, Histogram::new(("gromacs.fp", "coords"), 4));
    let errs = errors(&wf);
    assert_eq!(errs.len(), 1, "{errs:?}");
    let msg = errs[0].to_string();
    assert!(msg.contains("1-d"), "{msg}");
}

/// More bins than the input can ever have elements: a degeneracy warning,
/// not an error — the workflow still runs.
#[test]
fn degenerate_bins_is_a_warning() {
    let script = r#"
        aprun -n 1 gromacs chains=2 len=2 steps=1 &
        aprun -n 1 magnitude gromacs.fp coords m.fp r &
        aprun -n 1 histogram m.fp r 4096 &
        wait
    "#;
    let wf = WorkflowPlan::from_script(script)
        .unwrap()
        .workflow(StreamHub::new(), &[])
        .unwrap();
    let issues = wf.validate();
    assert_eq!(issues.len(), 1, "{issues:?}");
    assert_eq!(issues[0].severity(), Severity::Warning);
    let msg = issues[0].to_string();
    assert!(msg.contains("4096"), "{msg}");
    assert!(msg.contains("4"), "{msg}");
    assert!(errors(&wf).is_empty());
}

/// The advisory SB007 does not hide a Histogram's outputs: its `counts`
/// and `bin_edges` are fixed by configuration, so a Magnitude reading the
/// 1-d `counts` is still an SB006 contract violation.
#[test]
fn degenerate_histogram_still_declares_its_outputs() {
    let mut wf = Workflow::new();
    wf.add(
        1,
        Simulation::new(SimCode::Gromacs)
            .param("chains", 2)
            .param("len", 2),
    );
    wf.add(1, Magnitude::new(("gromacs.fp", "coords"), ("m.fp", "r")));
    wf.add(
        1,
        Histogram::new(("m.fp", "r"), 8).with_output_stream("h.fp"),
    );
    wf.add(1, Magnitude::new(("h.fp", "counts"), ("hm.fp", "x")));
    let issues = wf.validate();
    let ids: Vec<&str> = issues.iter().map(|i| i.lint().id).collect();
    assert!(ids.contains(&"SB007"), "{issues:?}");
    let errs = errors(&wf);
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert_eq!(errs[0].lint().id, "SB006");
    assert_eq!(errs[0].component(), Some("magnitude-2"));
    assert!(
        errs[0]
            .to_string()
            .contains("expected a 2-d array, got 1-d"),
        "{errs:?}"
    );
}

// ------------------------------------------------------- decomposition --

/// More ranks than the partitioned dimension has slices: sb_data's
/// decompose would leave ranks with empty parts and the extra processes
/// are pure overhead — flagged before anyone allocates them.
#[test]
fn over_decomposition_is_rejected_statically() {
    let mut wf = Workflow::new();
    wf.add(
        1,
        Simulation::new(SimCode::Gtcp)
            .param("slices", 4)
            .param("steps", 1),
    );
    // 8 ranks partitioning a 4-slice toroidal dimension.
    wf.add(
        8,
        Select::new(("gtcp.fp", "plasma"), 2, ["P_perp"], ("p.fp", "q")),
    );
    wf.add(1, DimReduce::new(("p.fp", "q"), 2, 1, ("d1.fp", "f2")));
    wf.add(1, DimReduce::new(("d1.fp", "f2"), 0, 1, ("d2.fp", "f1")));
    wf.add(1, Histogram::new(("d2.fp", "f1"), 4));
    let errs = errors(&wf);
    assert_eq!(errs.len(), 1, "{errs:?}");
    let AnalysisIssue::OverDecomposed {
        component,
        extent,
        nranks,
        ..
    } = &errs[0]
    else {
        panic!("expected an over-decomposition issue, got {:?}", errs[0]);
    };
    assert_eq!(component, "select");
    assert_eq!(*extent, 4);
    assert_eq!(*nranks, 8);
}

/// A simulation parameter is parsed where it enters: a bad value is the
/// `Err` of `try_param`, so no `Simulation` holds one, and validating a
/// workflow reads only typed values — it has no parse left to panic on.
#[test]
fn a_bad_simulation_parameter_is_refused_where_it_enters() {
    let err = Simulation::new(SimCode::Gtcp)
        .try_param("slices", "abc")
        .unwrap_err();
    assert_eq!(err, "simulation parameter slices=\"abc\" is not an integer");
    let sim = Simulation::new(SimCode::Gromacs)
        .try_param("chains", "4")
        .and_then(|sim| sim.try_param("steps", "1"))
        .unwrap();
    let mut wf = Workflow::new();
    wf.add(1, sim);
    wf.add(1, Magnitude::new(("gromacs.fp", "coords"), ("m.fp", "r")));
    wf.add(1, Histogram::new(("m.fp", "r"), 4));
    assert_eq!(errors(&wf), []);
}

// --------------------------------------------------------------- wiring --

/// Wiring mistakes surface as typed issues that name streams and readers.
#[test]
fn wiring_issues_are_typed() {
    let mut wf = Workflow::new();
    wf.add(1, Magnitude::new(("nowhere.fp", "x"), ("m.fp", "y")));
    let issues = wf.validate();
    assert!(issues.iter().any(|i| matches!(
        i,
        AnalysisIssue::Wiring(WiringIssue::NoWriter { stream, .. }) if stream == "nowhere.fp"
    )));
    assert!(issues.iter().any(|i| matches!(
        i,
        AnalysisIssue::Wiring(WiringIssue::NoReader { stream, .. }) if stream == "m.fp"
    )));
}

/// A component that declares its inputs as streams alone, with no
/// signature reads, is wired like any other: the analyser reads the
/// declaration the step loop opens.
#[test]
fn a_component_is_wired_from_its_subscriptions_alone() {
    struct Subscriber;
    impl smartblock::Component for Subscriber {
        fn label(&self) -> String {
            "subscriber".into()
        }
        fn input_streams(&self) -> Vec<String> {
            vec!["s.fp".into()]
        }
        fn run(
            &self,
            _: &sb_comm::Communicator,
            _: &std::sync::Arc<StreamHub>,
        ) -> smartblock::ComponentResult {
            unreachable!("validated, never run")
        }
    }
    let mut wf = Workflow::new();
    wf.add_source("sim", 1, "s.fp", |_| None::<sb_data::Variable>);
    wf.add(1, Subscriber);
    let wiring: Vec<AnalysisIssue> = wf
        .validate()
        .into_iter()
        .filter(|i| matches!(i, AnalysisIssue::Wiring(_)))
        .collect();
    assert!(wiring.is_empty(), "{wiring:?}");
}

// --------------------------------------------------------------- cycles --

fn cyclic_workflow(timeout: Duration) -> Workflow {
    let hub = StreamHub::with_timeout(timeout);
    let mut wf = Workflow::with_hub(hub);
    // Two transforms subscribed to each other: each waits on the other's
    // first step and neither can ever produce one.
    wf.add(1, Magnitude::new(("a.fp", "x"), ("b.fp", "y")));
    wf.add(1, Magnitude::new(("b.fp", "y"), ("a.fp", "x")));
    wf
}

/// Mutually-subscribed components are a guaranteed deadlock; the analyzer
/// reports the cycle members by label.
#[test]
fn subscription_cycle_is_rejected_statically() {
    let wf = cyclic_workflow(Duration::from_secs(120));
    let errs = errors(&wf);
    assert!(
        errs.iter().any(|i| matches!(
            i,
            AnalysisIssue::Cycle { components }
                if components.contains(&"magnitude".to_string())
                    && components.contains(&"magnitude-2".to_string())
        )),
        "{errs:?}"
    );
    let err = wf.run_with(RunOptions::default()).unwrap_err().to_string();
    assert!(err.contains("cycle"), "{err}");
}

/// The stress half of the cycle check: under `Validation::Skip` the same
/// workflow really does deadlock — both readers stall until the hub
/// watchdog fires — proving the static Cycle error predicts a genuine
/// runtime hang rather than a stylistic nit.
#[test]
fn predicted_cycle_really_deadlocks_unchecked() {
    let start = std::time::Instant::now();
    // A short watchdog keeps the proven deadlock inside the test budget.
    let err = cyclic_workflow(Duration::from_millis(400))
        .run_with(RunOptions::new().with_validation(Validation::Skip))
        .unwrap_err()
        .to_string();
    assert!(err.contains("timed out"), "{err}");
    // Both components blocked the full timeout: the hang was real.
    assert!(start.elapsed() >= Duration::from_millis(400), "{err}");
}
