//! The workflow supervisor: per-component fault policies and the
//! restart/degrade/abort state machine behind [`crate::Workflow::run_with`].
//!
//! Each component gets one supervisor thread. The supervisor spawns the
//! component's rank group, reaps *every* rank (`LaunchHandle::join_all` —
//! no stale rank of a failed incarnation may outlive the attempt), and on
//! failure applies the component's [`FaultPolicy`]:
//!
//! - **Abort** (default): record the failure, set the workflow-wide abort
//!   flag, and poison every stream so blocked peers fail fast with
//!   [`sb_stream::StreamError::PeerGone`] instead of hanging.
//! - **Restart**: rewind the component's stream attachments
//!   ([`sb_stream::StreamHub::prepare_restart`]) — readers resume at their
//!   first not-fully-released step, writers re-produce their last
//!   incomplete step — wait a linear backoff, and respawn, up to
//!   `max_restarts` times; exhaustion escalates to abort.
//! - **Degrade**: force a clean end-of-stream on the component's outputs
//!   (downstream drains what exists, then finishes normally) and detach its
//!   input subscriptions (upstream stops retaining steps for it). The
//!   workflow completes without the component.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sb_comm::{CommError, LaunchHandle};
use sb_data::lock;
use sb_stream::{EventKind, StreamHub, TraceConfig, TraceSite};

use crate::component::{subscriptions, take_partial_stats, Component};
use crate::error::{backoff_delay, ComponentError};
use crate::metrics::{ComponentOutcome, ComponentReport, ComponentStats};

/// What the supervisor does when a component fails (any rank returns an
/// error or panics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureAction {
    /// Tear the whole workflow down and surface the error to the caller.
    #[default]
    Abort,
    /// Restart the component, resuming its streams where the last complete
    /// step left off.
    Restart,
    /// Close the component's outputs cleanly and let the rest of the
    /// workflow finish without it.
    Degrade,
}

/// Per-component failure-handling policy.
///
/// Marked `#[non_exhaustive]` so future knobs (restart budgets, jitter,
/// health probes) are not breaking changes: construct via
/// [`FaultPolicy::abort`], [`FaultPolicy::restart`], or
/// [`FaultPolicy::degrade`] and refine with the `with_*` setters.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPolicy {
    /// What to do when the component fails.
    pub action: FailureAction,
    /// Restarts allowed before escalating to abort (only meaningful with
    /// [`FailureAction::Restart`]).
    pub max_restarts: u32,
    /// Base delay between restart attempts; attempt `n` waits `n * backoff`
    /// (linear). Keep this well under the hub timeout or sibling components
    /// may time out while the restart is still pending.
    pub backoff: Duration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy::abort()
    }
}

impl FaultPolicy {
    /// Fail the whole workflow on the first component failure (default).
    pub fn abort() -> FaultPolicy {
        FaultPolicy {
            action: FailureAction::Abort,
            max_restarts: 0,
            backoff: Duration::ZERO,
        }
    }

    /// Restart the failed component up to `max_restarts` times.
    pub fn restart(max_restarts: u32) -> FaultPolicy {
        FaultPolicy {
            action: FailureAction::Restart,
            max_restarts,
            backoff: Duration::from_millis(10),
        }
    }

    /// Drop the failed component and let the workflow finish degraded.
    pub fn degrade() -> FaultPolicy {
        FaultPolicy {
            action: FailureAction::Degrade,
            max_restarts: 0,
            backoff: Duration::ZERO,
        }
    }

    /// Sets the restart backoff base delay (builder style).
    pub fn with_backoff(mut self, backoff: Duration) -> FaultPolicy {
        self.backoff = backoff;
        self
    }

    /// Sets the restart budget (builder style).
    pub fn with_max_restarts(mut self, max_restarts: u32) -> FaultPolicy {
        self.max_restarts = max_restarts;
        self
    }
}

/// Whether [`crate::Workflow::run_with`] runs static validation first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Validation {
    /// Fail fast — without launching anything — on any
    /// [`crate::analysis::Severity::Error`] issue (default).
    #[default]
    FailFast,
    /// Launch without the gate: the escape hatch for workflows the static
    /// analysis cannot see through.
    Skip,
}

/// Options for [`crate::Workflow::run_with`] — the single entry point that
/// replaced `run()` / `run_unchecked()`.
///
/// Marked `#[non_exhaustive]`; construct via [`RunOptions::default`] (or
/// [`RunOptions::new`]) and refine with the `with_*` setters.
#[non_exhaustive]
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Static-validation policy (default: fail fast on fatal issues).
    pub validation: Validation,
    /// Fault policy for components without a per-component override
    /// (default: abort the workflow).
    pub fault_policy: FaultPolicy,
    /// Overrides the hub's blocking-operation timeout for this run.
    pub hub_timeout: Option<Duration>,
    /// Enables step-timeline tracing for this run; the drained
    /// [`sb_stream::Timeline`] lands on
    /// [`crate::WorkflowReport::timeline`]. `SB_TRACE=1` in the environment
    /// enables tracing with the default config even when this is `None`.
    pub trace: Option<TraceConfig>,
}

impl RunOptions {
    /// The default options: fail-fast validation, abort-on-failure, the
    /// hub's own timeout.
    pub fn new() -> RunOptions {
        RunOptions::default()
    }

    /// Sets the validation policy (builder style).
    pub fn with_validation(mut self, validation: Validation) -> RunOptions {
        self.validation = validation;
        self
    }

    /// Sets the default fault policy (builder style).
    pub fn with_fault_policy(mut self, fault_policy: FaultPolicy) -> RunOptions {
        self.fault_policy = fault_policy;
        self
    }

    /// Overrides the hub timeout for this run (builder style).
    pub fn with_hub_timeout(mut self, hub_timeout: Duration) -> RunOptions {
        self.hub_timeout = Some(hub_timeout);
        self
    }

    /// Enables step-timeline tracing for this run (builder style).
    pub fn with_tracing(mut self, trace: TraceConfig) -> RunOptions {
        self.trace = Some(trace);
        self
    }
}

/// State shared by every component supervisor of one workflow run.
pub(crate) struct Supervision {
    pub(crate) hub: Arc<StreamHub>,
    /// Set by the first supervisor that escalates to abort.
    abort: AtomicBool,
    /// The failure that caused the abort (first writer wins).
    first_failure: Mutex<Option<(String, u32, ComponentError)>>,
}

impl Supervision {
    pub(crate) fn new(hub: Arc<StreamHub>) -> Supervision {
        Supervision {
            hub,
            abort: AtomicBool::new(false),
            first_failure: Mutex::new(None),
        }
    }

    pub(crate) fn aborting(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    pub(crate) fn take_first_failure(&self) -> Option<(String, u32, ComponentError)> {
        lock(&self.first_failure).take()
    }

    fn escalate(&self, label: &str, attempts: u32, error: ComponentError) {
        {
            let mut first = lock(&self.first_failure);
            if first.is_none() {
                *first = Some((label.to_string(), attempts, error.clone()));
            }
        }
        self.abort.store(true, Ordering::SeqCst);
        self.hub
            .poison_all(&format!("workflow aborted: {label} failed: {error}"));
    }
}

/// Picks the most informative error among the failed ranks: a root-cause
/// error (panic, injected fault, data error) over a secondary one (a rank
/// blocked on a peer that died).
fn primary_error(errors: Vec<ComponentError>) -> Option<ComponentError> {
    let mut secondary = None;
    for e in errors {
        if !e.is_secondary() {
            return Some(e);
        }
        secondary.get_or_insert(e);
    }
    secondary
}

/// Runs one component under supervision: spawn, reap all ranks, apply the
/// fault policy, repeat while restarting. Returns the component's report;
/// fatal failures are recorded on `sup` as a side effect.
///
/// The policy lives behind a shared slot rather than a plain reference so a
/// reactive trigger (`raise_fault_policy`) can replace it while the
/// component runs — the slot is re-read at each failure decision point.
pub(crate) fn supervise(
    label: &str,
    nranks: usize,
    component: Arc<dyn Component>,
    policy: &Mutex<FaultPolicy>,
    sup: &Supervision,
) -> ComponentReport {
    let mut attempts = 0u32;
    // Accounting carried across attempts, by rank: a restarted component
    // must report the union of everything its attempts did, not just the
    // final attempt (released steps are not re-produced, so dropping
    // earlier attempts undercounts steps and bytes).
    let mut carried: Vec<ComponentStats> = vec![ComponentStats::default(); nranks];
    loop {
        attempts += 1;
        let comp = Arc::clone(&component);
        let hub = Arc::clone(&sup.hub);
        // Each rank installs its trace ring (a no-op while tracing is
        // disabled), runs, then harvests any partial stats a failing run
        // loop stashed on this same thread.
        let handle = match LaunchHandle::spawn(label, nranks, move |comm| {
            let _ring = hub.tracer().install_thread_ring();
            let result = comp.run(&comm, &hub);
            let partial = take_partial_stats();
            (result, partial)
        }) {
            Ok(h) => h,
            Err(e) => {
                let error = ComponentError::Launch {
                    label: label.to_string(),
                    source: e,
                };
                sup.escalate(label, attempts, error.clone());
                return failed_report(label, nranks, attempts, error);
            }
        };

        // Reap every rank: no thread of this incarnation may survive into
        // a restart. `join_all` yields results in rank order, so the
        // enumeration index is the rank.
        let mut errors = Vec::new();
        for (rank, joined) in handle.join_all().into_iter().enumerate() {
            match joined {
                Ok((Ok(stats), _)) => carried[rank].absorb(stats),
                Ok((Err(e), partial)) => {
                    if let Some(stats) = partial {
                        carried[rank].absorb(stats);
                    }
                    errors.push(e);
                }
                Err(CommError::RankPanicked { rank, message }) => {
                    errors.push(ComponentError::Panicked {
                        label: label.to_string(),
                        rank,
                        message,
                    })
                }
                Err(other) => errors.push(ComponentError::Launch {
                    label: label.to_string(),
                    source: other,
                }),
            }
        }

        let Some(error) = primary_error(errors) else {
            return ComponentReport::from_ranks(label.to_string(), carried)
                .with_supervision(attempts, ComponentOutcome::Completed);
        };

        // Failures observed while the workflow is already tearing down are
        // collateral damage of the poisoned streams, not policy material.
        if sup.aborting() {
            return failed_report(label, nranks, attempts, error);
        }

        // Re-read the slot at the decision point: a trigger may have raised
        // the policy since the component was launched.
        let policy = lock(policy).clone();
        match policy.action {
            FailureAction::Restart if attempts <= policy.max_restarts => {
                supervisor_event(sup, label, EventKind::RestartAttempt, (attempts + 1) as u64);
                sup.hub.prepare_restart(
                    &subscriptions(label, component.as_ref()),
                    &component.output_streams(),
                );
                std::thread::sleep(backoff_delay(policy.backoff, attempts));
                continue;
            }
            FailureAction::Degrade => {
                supervisor_event(sup, label, EventKind::Degraded, attempts as u64);
                for stream in component.output_streams() {
                    sup.hub.force_end_of_stream(&stream);
                }
                for (stream, group) in subscriptions(label, component.as_ref()) {
                    sup.hub.detach_reader_group(&stream, &group);
                }
                let mut report = ComponentReport::from_ranks(label.to_string(), carried)
                    .with_supervision(attempts, ComponentOutcome::Degraded { error });
                report.nranks = nranks;
                return report;
            }
            // Abort, or a restart budget that just ran out.
            _ => {
                sup.escalate(label, attempts, error.clone());
                return failed_report(label, nranks, attempts, error);
            }
        }
    }
}

/// Records a supervisor decision on the timeline (restart or degrade).
/// Supervisor threads have no event ring; these rare instants go straight
/// to the tracer sink.
fn supervisor_event(sup: &Supervision, label: &str, kind: EventKind, arg: u64) {
    let tracer = sup.hub.tracer();
    if tracer.enabled() {
        let site = TraceSite::component(tracer.intern(label), 0, 0);
        tracer.instant(kind, site, arg);
    }
}

fn failed_report(
    label: &str,
    nranks: usize,
    attempts: u32,
    error: ComponentError,
) -> ComponentReport {
    let mut report = ComponentReport::from_ranks(label.to_string(), Vec::new())
        .with_supervision(attempts, ComponentOutcome::Failed { error });
    report.nranks = nranks;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_builders_and_defaults() {
        assert_eq!(FaultPolicy::default(), FaultPolicy::abort());
        let p = FaultPolicy::restart(3).with_backoff(Duration::from_millis(1));
        assert_eq!(p.action, FailureAction::Restart);
        assert_eq!(p.max_restarts, 3);
        assert_eq!(p.backoff, Duration::from_millis(1));
        let d = FaultPolicy::degrade().with_max_restarts(7);
        assert_eq!(d.action, FailureAction::Degrade);
        assert_eq!(d.max_restarts, 7);
    }

    #[test]
    fn run_options_builders() {
        let o = RunOptions::new()
            .with_validation(Validation::Skip)
            .with_fault_policy(FaultPolicy::degrade())
            .with_hub_timeout(Duration::from_secs(1));
        assert_eq!(o.validation, Validation::Skip);
        assert_eq!(o.fault_policy.action, FailureAction::Degrade);
        assert_eq!(o.hub_timeout, Some(Duration::from_secs(1)));
    }

    #[test]
    fn primary_error_prefers_root_causes() {
        let secondary = ComponentError::Stream {
            label: "a".into(),
            step: 0,
            source: sb_stream::StreamError::PeerGone {
                stream: "s.fp".into(),
                reason: "poisoned".into(),
            },
        };
        let root = ComponentError::Panicked {
            label: "a".into(),
            rank: 1,
            message: "boom".into(),
        };
        let picked = primary_error(vec![secondary.clone(), root.clone()]).unwrap();
        assert_eq!(picked, root);
        assert_eq!(primary_error(vec![secondary.clone()]).unwrap(), secondary);
        assert_eq!(primary_error(Vec::new()), None);
    }
}
