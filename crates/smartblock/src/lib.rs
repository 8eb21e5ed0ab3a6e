//! # smartblock — generic, reusable in situ workflow components
//!
//! This crate is the paper's contribution: a small set of generic
//! components — [`Select`], [`Magnitude`], [`DimReduce`], [`Histogram`] —
//! that can be composed, *without recompilation*, into complete in situ
//! scientific workflows. Every component is "an MPI executable" (here: a
//! thread-rank group over `sb-comm`) that
//!
//! 1. discovers the dimensions, sizes, names and quantity labels of its
//!    input from the self-describing stream (no hard-coded formats),
//! 2. partitions the incoming global array evenly among its ranks,
//! 3. applies one small transformation per timestep, and
//! 4. publishes its output under user-chosen stream/array names so that any
//!    downstream component can consume it.
//!
//! Steps 1 and 2 are stated once, in [`Component::signature`]: the one step
//! loop ([`component::run_steps`]) runs it on every step's metadata, and
//! the static analyser ([`analysis`]) runs it before launch.
//!
//! Workflows are assembled exactly as in the paper: a launch script names
//! each component, its process count, and its input/output stream and array
//! names ([`launch`] imports the `aprun`-style grammar of Figs. 1–3 and 8,
//! whose `#@` directive comments add transport, fault policies, process
//! groups and DIVA-style triggers, and lowers it to one typed
//! [`WorkflowPlan`]); the [`runtime`] launches every component of the
//! workflow simultaneously and FlexPath-style blocking connects them in
//! any order.
//!
//! Beyond the paper's four components, the crate includes the §V-C
//! all-in-one baseline ([`AllInOne`]) used to measure the cost of
//! componentization, and the §VI future-work components: [`Fork`] (DAG
//! fan-out), [`Combine`], [`TemporalMean`], [`Threshold`] and
//! [`FileWrite`]/[`FileRead`] (storage-decoupled workflows).
//!
//! ## Quick example
//!
//! ```
//! use smartblock::prelude::*;
//! use sb_data::{Buffer, Shape, Variable};
//!
//! // A tiny source that emits particles x {ID, vx, vy, vz} then a pipeline
//! // select -> magnitude -> histogram, wired purely by stream names.
//! let mut wf = Workflow::new();
//! wf.add_source("source", 1, "dump.fp", |step| {
//!     (step < 3).then(|| {
//!         let data: Vec<f64> = (0..32).map(|i| (i + step as usize) as f64).collect();
//!         Variable::new("atoms", Shape::of(&[("particles", 8), ("props", 4)]), Buffer::from(data))
//!             .unwrap()
//!             .with_labels(1, &["ID", "vx", "vy", "vz"])
//!             .unwrap()
//!     })
//! });
//! wf.add(2, Select::new(("dump.fp", "atoms"), 1, ["vx", "vy", "vz"], ("sel.fp", "vel")));
//! wf.add(2, Magnitude::new(("sel.fp", "vel"), ("mag.fp", "speed")));
//! wf.add(1, Histogram::new(("mag.fp", "speed"), 8).with_output_stream("hist.fp"));
//! wf.add_sink("check", 1, "hist.fp", |step, vars| {
//!     let counts = &vars["counts"];
//!     assert_eq!(counts.data.to_f64_vec().iter().sum::<f64>(), 8.0, "step {step}");
//! });
//! let report = wf.run_with(RunOptions::default()).unwrap();
//! assert_eq!(report.component("histogram").unwrap().stats.steps, 3);
//! ```
//!
//! ## Failure semantics
//!
//! [`Component::run`] is fallible: a stalled peer or malformed input is a
//! typed [`ComponentError`], never a panic-on-timeout. The workflow
//! supervisor behind [`Workflow::run_with`] applies a per-component
//! [`FaultPolicy`] — abort the workflow, restart with backoff, or degrade
//! by closing the component's outputs so downstream sees a clean
//! end-of-stream. The [`sb_stream::faults`] module injects deterministic,
//! seeded faults for chaos testing.

pub mod all_in_one;
pub mod analysis;
pub mod combine;
pub mod component;
pub mod dim_reduce;
pub mod error;
pub mod file_io;
pub mod fork;
pub mod histogram;
pub mod launch;
pub mod magnitude;
pub mod metrics;
pub mod plan;
pub mod runtime;
pub mod select;
pub mod supervisor;
pub mod temporal;
pub mod threshold;
pub mod triggers;
pub mod workflows;

pub use all_in_one::AllInOne;
pub use analysis::{
    lint_plan, lint_source, AnalysisIssue, ArraySpec, Diagnostic, DimSpec, Extent, Level, Lint,
    LintConfig, PartitionRule, ReadSpec, ScriptLint, Severity, Signature, SpecError, StepContract,
    StreamSpec, LINTS,
};
pub use combine::{BinaryOp, Combine};
pub use component::{Component, StreamArray};
pub use dim_reduce::DimReduce;
pub use error::{ComponentError, ComponentResult, StepError, StepResult, WorkflowError};
pub use file_io::{FileRead, FileWrite};
pub use fork::Fork;
pub use histogram::{Histogram, HistogramResult};
pub use launch::{LaunchEntry, LaunchError, ScriptDirectives};
pub use magnitude::Magnitude;
pub use metrics::{ComponentOutcome, ComponentReport, ComponentStats, WorkflowReport};
pub use plan::{PlannedComponent, WorkflowPlan};
pub use runtime::{WiringIssue, Workflow};
pub use select::Select;
pub use supervisor::{FailureAction, FaultPolicy, RunOptions, Validation};
pub use temporal::TemporalMean;
pub use threshold::{Predicate, Threshold};
pub use triggers::{ControlAction, Trigger, TriggerAction, TriggerFire, TriggerOp};

/// Trace types re-exported from the stream layer: workflows configure
/// tracing through [`RunOptions`] and consume the drained timeline off the
/// [`WorkflowReport`], so the types live at the same level.
pub use sb_stream::{EventKind, PhaseHistogram, Timeline, TraceConfig, TraceEvent};

/// Everything needed to assemble, supervise, and run a workflow: the
/// workflow and component surfaces, the kernel components, the run options
/// and fault policies, the error taxonomy, and the stream-transport types
/// workflows touch directly.
pub mod prelude {
    pub use crate::analysis::{AnalysisIssue, Diagnostic, Level, LintConfig, Severity};
    pub use crate::component::{Component, StreamArray};
    pub use crate::runtime::{WiringIssue, Workflow};
    pub use crate::{
        AllInOne, BinaryOp, Combine, DimReduce, FileRead, FileWrite, Fork, Histogram, Magnitude,
        Predicate, Select, TemporalMean, Threshold,
    };
    pub use crate::{
        ComponentError, ComponentOutcome, ComponentReport, ComponentResult, ComponentStats,
        FailureAction, FaultPolicy, HistogramResult, RunOptions, StepError, StepResult, Validation,
        WorkflowError, WorkflowReport,
    };
    pub use crate::{LaunchError, Trigger, TriggerAction, TriggerFire, TriggerOp, WorkflowPlan};
    pub use sb_stream::{
        EventKind, FaultKind, FaultPlan, StepStatus, StreamError, StreamHub, Timeline, TraceConfig,
        WriterOptions,
    };
}
