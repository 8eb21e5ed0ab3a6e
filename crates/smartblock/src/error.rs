//! The workflow error taxonomy: per-step, per-component, and per-workflow
//! failures.
//!
//! Three layers mirror the runtime's structure. A *step* fails with a
//! [`StepError`] (a data-model or stream-transport problem inside one step
//! of a run loop); a *component* fails with a [`ComponentError`] (the step
//! error annotated with label and step, an unwound panic, or an injected
//! chaos fault); a *workflow* fails with a [`WorkflowError`] (static
//! validation, a launch problem, or a component failure that the
//! supervisor's [`crate::FaultPolicy`] could not absorb).

use std::fmt;
use std::time::Duration;

use sb_comm::CommError;
use sb_data::DataError;
use sb_stream::StreamError;

/// What went wrong inside one step of a component run loop.
///
/// The `From` impls let per-step closures use `?` on both data-model
/// operations (`reader.get(..)?`) and the stream errors the loop itself
/// meets opening and committing steps; the run loop annotates the result
/// with the component label and step id.
#[derive(Debug, Clone, PartialEq)]
pub enum StepError {
    /// A self-describing-data operation failed.
    Data(DataError),
    /// A stream operation timed out or found its peer gone.
    Stream(StreamError),
}

impl From<DataError> for StepError {
    fn from(e: DataError) -> StepError {
        StepError::Data(e)
    }
}

impl From<StreamError> for StepError {
    fn from(e: StreamError) -> StepError {
        StepError::Stream(e)
    }
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::Data(e) => write!(f, "{e}"),
            StepError::Stream(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StepError {}

/// Result alias for per-step closures in the component run loops.
pub type StepResult<T> = Result<T, StepError>;

/// Why one rank of a component failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ComponentError {
    /// A stream operation failed (timeout or peer gone).
    Stream {
        /// Component label.
        label: String,
        /// Step the component was working on.
        step: u64,
        /// The underlying transport error.
        source: StreamError,
    },
    /// A data-model operation failed (malformed or missing input).
    Data {
        /// Component label.
        label: String,
        /// Step the component was working on.
        step: u64,
        /// The underlying data error.
        source: DataError,
    },
    /// A fault-injection directive killed the component (chaos testing).
    Injected {
        /// Component label.
        label: String,
        /// Rank the directive fired on.
        rank: usize,
        /// Step the directive fired at.
        step: u64,
    },
    /// The component panicked; the unwind was caught at the launch layer.
    Panicked {
        /// Component label.
        label: String,
        /// The panicking rank.
        rank: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The component could not be launched at all.
    Launch {
        /// Component label.
        label: String,
        /// The underlying launch error.
        source: CommError,
    },
    /// The component's outputs resume at different steps — an earlier
    /// incarnation committed a step on some outputs and not on others — so
    /// running it would label one input step differently on each.
    OutputsOutOfStep {
        /// Component label.
        label: String,
        /// Each output stream and the step it resumes at.
        outputs: Vec<(String, u64)>,
    },
}

impl ComponentError {
    /// Annotates a [`StepError`] with its component label and step.
    pub fn from_step(label: &str, step: u64, e: StepError) -> ComponentError {
        match e {
            StepError::Stream(source) => ComponentError::Stream {
                label: label.to_string(),
                step,
                source,
            },
            StepError::Data(source) => ComponentError::Data {
                label: label.to_string(),
                step,
                source,
            },
        }
    }

    /// The label of the failing component.
    pub fn label(&self) -> &str {
        match self {
            ComponentError::Stream { label, .. }
            | ComponentError::Data { label, .. }
            | ComponentError::Injected { label, .. }
            | ComponentError::Panicked { label, .. }
            | ComponentError::Launch { label, .. }
            | ComponentError::OutputsOutOfStep { label, .. } => label,
        }
    }

    /// The failing rank, when one rank is attributable.
    pub fn rank(&self) -> Option<usize> {
        match self {
            ComponentError::Injected { rank, .. } | ComponentError::Panicked { rank, .. } => {
                Some(*rank)
            }
            _ => None,
        }
    }

    /// True for errors that are *consequences* of some other failure — a
    /// rank blocked on a peer that died — rather than the root cause. The
    /// supervisor prefers reporting a non-secondary error when both exist.
    pub fn is_secondary(&self) -> bool {
        matches!(self, ComponentError::Stream { .. })
    }
}

impl fmt::Display for ComponentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentError::Stream {
                label,
                step,
                source,
            } => write!(f, "component {label:?}: step {step}: {source}"),
            ComponentError::Data {
                label,
                step,
                source,
            } => write!(f, "component {label:?}: step {step}: {source}"),
            ComponentError::Injected { label, rank, step } => write!(
                f,
                "component {label:?}: rank {rank} killed by injected fault at step {step}"
            ),
            ComponentError::Panicked {
                label,
                rank,
                message,
            } => write!(f, "component {label:?}: rank {rank} panicked: {message}"),
            ComponentError::Launch { label, source } => {
                write!(f, "component {label:?}: launch failed: {source}")
            }
            ComponentError::OutputsOutOfStep { label, outputs } => {
                write!(f, "component {label:?}: outputs resume at different steps:")?;
                for (stream, step) in outputs {
                    write!(f, " {stream:?} at {step}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ComponentError {}

/// Result alias for [`crate::Component::run`].
pub type ComponentResult = Result<crate::ComponentStats, ComponentError>;

/// Why a workflow run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// The workflow was refused before anything launched: static
    /// validation found fatal issues, or (from
    /// [`crate::Workflow::from_script_file`]) its script could not be read,
    /// lowered, or linted clean of errors.
    Invalid {
        /// One rendered reason each: an [`crate::AnalysisIssue`] of
        /// [`crate::analysis::Severity::Error`], a script line, a lint.
        issues: Vec<String>,
    },
    /// A component failed and its [`crate::FaultPolicy`] could not absorb
    /// the failure (abort policy, or restarts exhausted).
    ComponentFailed {
        /// The failing component's label.
        label: String,
        /// Times the component was attempted (1 = no restarts).
        attempts: u32,
        /// The error of the final attempt.
        error: ComponentError,
    },
    /// A component could not be launched.
    Launch(CommError),
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::Invalid { issues } => {
                write!(f, "workflow failed static validation: ")?;
                for (i, issue) in issues.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{issue}")?;
                }
                Ok(())
            }
            WorkflowError::ComponentFailed {
                label,
                attempts,
                error,
            } => write!(
                f,
                "component {label:?} failed after {attempts} attempt(s): {error}"
            ),
            WorkflowError::Launch(e) => write!(f, "workflow launch failed: {e}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

/// Rough wall-clock cost of retrying: linear backoff, attempt `n` (1-based)
/// sleeps `n * backoff`. Kept here so the supervisor and its tests agree.
pub(crate) fn backoff_delay(backoff: Duration, attempt: u32) -> Duration {
    backoff.saturating_mul(attempt)
}
