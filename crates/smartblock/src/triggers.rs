//! DIVA-style reactive triggers: `when <component>.<signal> <op> <value>
//! then <action>`.
//!
//! A trigger watches one scalar signal a component publishes on the hub's
//! [`sb_stream::SignalBoard`] (a histogram's per-step `max`, a run loop's
//! `wait_ratio`) and, the first time the condition holds, performs one
//! runtime action:
//!
//! * `set_output_stride LABEL N` — retarget a [`crate::TemporalMean`]'s
//!   output decimation stride mid-run (via [`ControlAction`]);
//! * `snapshot_stream STREAM PATH` — dump the stream's currently buffered
//!   committed steps to a text file without disturbing the pipeline;
//! * `raise_fault_policy LABEL SPEC` — swap the component's fault policy
//!   (e.g. escalate `degrade` to `restart:3`) before the next failure.
//!
//! A launch script declares a clause in one directive line,
//! `#@ trigger when histogram.max > 100 then set_output_stride temporal-mean 4`;
//! [`crate::Workflow::add_trigger`] adds one programmatically.
//!
//! Evaluation is *synchronous in the publishing thread*: the signal board's
//! hook runs at the publication point, so a trigger firing at step `k`
//! takes effect before the publisher commits step `k` downstream — the
//! determinism the regression tests pin. Triggers fire once (DIVA's
//! edge-triggered clauses); the fired record lands on
//! [`crate::WorkflowReport::triggers`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use sb_data::lock;
use sb_stream::StreamHub;

use crate::component::Component;
use crate::supervisor::FaultPolicy;

/// A runtime control request delivered to a component via
/// [`Component::apply_control`]. Marked `#[non_exhaustive]`: new trigger
/// actions add variants without breaking component impls (the trait
/// default ignores unknown actions).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlAction {
    /// Change the component's output decimation stride (honoured by
    /// [`crate::TemporalMean`]).
    SetOutputStride(usize),
}

/// The comparison operator of a trigger's `when` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerOp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
}

impl TriggerOp {
    /// Parses the operator token of a `when` clause.
    pub fn parse(tok: &str) -> Option<TriggerOp> {
        match tok {
            ">" => Some(TriggerOp::Gt),
            ">=" => Some(TriggerOp::Ge),
            "<" => Some(TriggerOp::Lt),
            "<=" => Some(TriggerOp::Le),
            _ => None,
        }
    }

    /// Whether `observed op threshold` holds.
    pub fn holds(self, observed: f64, threshold: f64) -> bool {
        match self {
            TriggerOp::Gt => observed > threshold,
            TriggerOp::Ge => observed >= threshold,
            TriggerOp::Lt => observed < threshold,
            TriggerOp::Le => observed <= threshold,
        }
    }
}

impl fmt::Display for TriggerOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TriggerOp::Gt => ">",
            TriggerOp::Ge => ">=",
            TriggerOp::Lt => "<",
            TriggerOp::Le => "<=",
        })
    }
}

/// The `then` clause of a trigger.
#[derive(Debug, Clone, PartialEq)]
pub enum TriggerAction {
    /// `set_output_stride LABEL N`
    SetOutputStride {
        /// Component label whose output stride changes.
        target: String,
        /// The new stride (≥ 1).
        stride: usize,
    },
    /// `snapshot_stream STREAM PATH`
    SnapshotStream {
        /// Stream to snapshot.
        stream: String,
        /// File the text dump is written to.
        path: String,
    },
    /// `raise_fault_policy LABEL SPEC`
    RaiseFaultPolicy {
        /// Component label whose policy is replaced.
        target: String,
        /// The replacement policy.
        policy: FaultPolicy,
    },
}

impl fmt::Display for TriggerAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TriggerAction::SetOutputStride { target, stride } => {
                write!(f, "set_output_stride {target} {stride}")
            }
            TriggerAction::SnapshotStream { stream, path } => {
                write!(f, "snapshot_stream {stream} {path}")
            }
            TriggerAction::RaiseFaultPolicy { target, policy } => {
                write!(f, "raise_fault_policy {target} {:?}", policy.action)
            }
        }
    }
}

/// One reactive clause: `when <component>.<signal> <op> <value> then
/// <action>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    /// Component whose signal is watched (the label the component
    /// publishes under — its workflow label, e.g. `histogram-2`).
    pub component: String,
    /// Signal name (`max`, `min`, `total`, `nan_count`, `wait_ratio`, …).
    pub signal: String,
    /// Comparison operator.
    pub op: TriggerOp,
    /// Threshold value.
    pub value: f64,
    /// What happens when the condition first holds.
    pub action: TriggerAction,
    /// 1-based script line of its `#@ trigger` directive (0 when built
    /// programmatically), threaded into lint diagnostics.
    pub line: usize,
}

impl Trigger {
    /// Builds a trigger programmatically (line 0).
    pub fn new(
        component: impl Into<String>,
        signal: impl Into<String>,
        op: TriggerOp,
        value: f64,
        action: TriggerAction,
    ) -> Trigger {
        Trigger {
            component: component.into(),
            signal: signal.into(),
            op,
            value,
            action,
            line: 0,
        }
    }

    /// Parses the `when` clause body `component.signal op value` (the part
    /// after the `when` keyword).
    pub fn parse_when(when: &str) -> Result<(String, String, TriggerOp, f64), String> {
        let toks: Vec<&str> = when.split_whitespace().collect();
        let usage = || format!("bad when clause {when:?} (component.signal <op> value)");
        let [ref_, op, value] = toks[..] else {
            return Err(usage());
        };
        let (component, signal) = ref_
            .split_once('.')
            .ok_or_else(|| format!("bad signal reference {ref_:?} (component.signal)"))?;
        if component.is_empty() || signal.is_empty() {
            return Err(format!("bad signal reference {ref_:?} (component.signal)"));
        }
        let op =
            TriggerOp::parse(op).ok_or_else(|| format!("bad operator {op:?} (>, >=, <, <=)"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("bad threshold {value:?} (a number)"))?;
        Ok((component.to_string(), signal.to_string(), op, value))
    }

    /// Parses the `then` clause body (the part after the `then` keyword).
    pub fn parse_then(then: &str) -> Result<TriggerAction, String> {
        let toks: Vec<&str> = then.split_whitespace().collect();
        match toks.as_slice() {
            ["set_output_stride", target, stride] => {
                let stride: usize = stride
                    .parse()
                    .map_err(|_| format!("bad stride {stride:?} (a positive integer)"))?;
                if stride == 0 {
                    return Err("stride must be at least 1".to_string());
                }
                Ok(TriggerAction::SetOutputStride {
                    target: target.to_string(),
                    stride,
                })
            }
            ["snapshot_stream", stream, path] => Ok(TriggerAction::SnapshotStream {
                stream: stream.to_string(),
                path: path.to_string(),
            }),
            ["raise_fault_policy", target, spec] => {
                let policy = crate::launch::parse_policy_spec(spec)?;
                Ok(TriggerAction::RaiseFaultPolicy {
                    target: target.to_string(),
                    policy,
                })
            }
            _ => Err(format!(
                "bad then clause {then:?} (set_output_stride LABEL N, \
                 snapshot_stream STREAM PATH, or raise_fault_policy LABEL SPEC)"
            )),
        }
    }
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "when {}.{} {} {} then {}",
            self.component, self.signal, self.op, self.value, self.action
        )
    }
}

/// The record of one trigger firing, surfaced on
/// [`crate::WorkflowReport::triggers`].
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerFire {
    /// The clause that fired, rendered.
    pub trigger: String,
    /// Step of the observation that fired it.
    pub step: u64,
    /// The observed value.
    pub value: f64,
    /// Whether the action took effect (`false` e.g. when a stride target
    /// ignores control actions or a snapshot stream does not exist).
    pub applied: bool,
    /// Whether the action was *skipped* rather than attempted: the backend
    /// cannot perform it at all (e.g. `snapshot_stream` on a remote
    /// transport that does not expose buffered steps). Skipped firings also
    /// record a `trigger_skipped` trace instant. `skipped` implies
    /// `!applied`.
    pub skipped: bool,
}

/// How performing one trigger action went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActionOutcome {
    /// The action took effect.
    Applied,
    /// The action was attempted but failed (missing target, I/O error).
    Failed,
    /// The backend cannot perform the action; nothing was attempted.
    Skipped,
}

struct Armed {
    trigger: Trigger,
    fired: bool,
}

/// Evaluates a workflow's triggers against published signals and performs
/// their actions. One engine per run; [`crate::Workflow::run_with`] arms it
/// on the hub's signal board when the workflow declares triggers.
pub(crate) struct TriggerEngine {
    hub: Arc<StreamHub>,
    /// Component instances by workflow label, for [`ControlAction`] routing.
    components: BTreeMap<String, Arc<dyn Component>>,
    /// Live per-component fault policies (shared with the supervisors).
    policy_slots: BTreeMap<String, Arc<Mutex<FaultPolicy>>>,
    armed: Mutex<Vec<Armed>>,
    fired: Mutex<Vec<TriggerFire>>,
}

impl TriggerEngine {
    pub(crate) fn new(
        triggers: Vec<Trigger>,
        components: BTreeMap<String, Arc<dyn Component>>,
        hub: Arc<StreamHub>,
        policy_slots: BTreeMap<String, Arc<Mutex<FaultPolicy>>>,
    ) -> TriggerEngine {
        TriggerEngine {
            hub,
            components,
            policy_slots,
            armed: Mutex::new(
                triggers
                    .into_iter()
                    .map(|trigger| Armed {
                        trigger,
                        fired: false,
                    })
                    .collect(),
            ),
            fired: Mutex::new(Vec::new()),
        }
    }

    /// The signal-board hook body: called synchronously on the publishing
    /// thread for every signal publication.
    pub(crate) fn observe(&self, component: &str, signal: &str, step: u64, value: f64) {
        // Collect matching un-fired clauses under the lock, act outside it:
        // actions touch streams and component state and must not hold the
        // engine lock while doing so.
        let mut due = Vec::new();
        {
            let mut armed = lock(&self.armed);
            for a in armed.iter_mut() {
                if !a.fired
                    && a.trigger.component == component
                    && a.trigger.signal == signal
                    && a.trigger.op.holds(value, a.trigger.value)
                {
                    a.fired = true;
                    due.push(a.trigger.clone());
                }
            }
        }
        for trigger in due {
            let outcome = self.perform(&trigger.action, step);
            lock(&self.fired).push(TriggerFire {
                trigger: trigger.to_string(),
                step,
                value,
                applied: outcome == ActionOutcome::Applied,
                skipped: outcome == ActionOutcome::Skipped,
            });
        }
    }

    fn perform(&self, action: &TriggerAction, step: u64) -> ActionOutcome {
        match action {
            TriggerAction::SetOutputStride { target, stride } => {
                match self
                    .components
                    .get(target)
                    .map(|c| c.apply_control(&ControlAction::SetOutputStride(*stride)))
                {
                    Some(true) => ActionOutcome::Applied,
                    _ => ActionOutcome::Failed,
                }
            }
            TriggerAction::SnapshotStream { stream, path } => {
                match self.hub.snapshot_stream(stream) {
                    Some(steps) => {
                        if write_snapshot(path, stream, &steps).is_ok() {
                            ActionOutcome::Applied
                        } else {
                            ActionOutcome::Failed
                        }
                    }
                    // The backend has no buffered-step view (e.g. a remote
                    // transport client): the action cannot run here. Make
                    // the skip visible instead of dropping it — a trace
                    // instant now, a skipped fired record after the run.
                    None => {
                        let tracer = self.hub.tracer();
                        let site = sb_stream::TraceSite::stream(tracer.intern(stream), 0, step);
                        tracer.instant(sb_stream::EventKind::TriggerSkipped, site, 0);
                        ActionOutcome::Skipped
                    }
                }
            }
            TriggerAction::RaiseFaultPolicy { target, policy } => {
                match self.policy_slots.get(target) {
                    Some(slot) => {
                        *lock(slot) = policy.clone();
                        ActionOutcome::Applied
                    }
                    None => ActionOutcome::Failed,
                }
            }
        }
    }

    /// Drains the fired records (called once, after the run).
    pub(crate) fn take_fired(&self) -> Vec<TriggerFire> {
        std::mem::take(&mut lock(&self.fired))
    }
}

/// Writes a deterministic text dump of a stream snapshot: one header line,
/// then per step the variable names with their chunk counts and payload
/// byte totals.
fn write_snapshot(
    path: &str,
    stream: &str,
    steps: &[(u64, sb_stream::StepContents)],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = String::new();
    out.push_str(&format!(
        "# snapshot stream {stream} steps {}\n",
        steps.len()
    ));
    for (step, contents) in steps {
        out.push_str(&format!("step {step} vars {}\n", contents.len()));
        for (name, slot) in contents.iter() {
            let bytes: usize = slot.chunks.iter().map(|c| c.byte_len()).sum();
            out.push_str(&format!(
                "  var {name} chunks {} bytes {bytes}\n",
                slot.chunks.len()
            ));
        }
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_parse_and_hold() {
        assert_eq!(TriggerOp::parse(">"), Some(TriggerOp::Gt));
        assert_eq!(TriggerOp::parse(">="), Some(TriggerOp::Ge));
        assert_eq!(TriggerOp::parse("<"), Some(TriggerOp::Lt));
        assert_eq!(TriggerOp::parse("<="), Some(TriggerOp::Le));
        assert_eq!(TriggerOp::parse("=="), None);
        assert!(TriggerOp::Gt.holds(2.0, 1.0));
        assert!(!TriggerOp::Gt.holds(1.0, 1.0));
        assert!(TriggerOp::Ge.holds(1.0, 1.0));
        assert!(TriggerOp::Lt.holds(0.5, 1.0));
        assert!(TriggerOp::Le.holds(1.0, 1.0));
    }

    #[test]
    fn when_clause_parses() {
        let (c, s, op, v) = Trigger::parse_when("histogram.max > 100").unwrap();
        assert_eq!((c.as_str(), s.as_str()), ("histogram", "max"));
        assert_eq!(op, TriggerOp::Gt);
        assert_eq!(v, 100.0);
        for bad in [
            "histogram.max >",
            "histogram max > 1",
            "histogram. > 1",
            ".max > 1",
            "histogram.max == 1",
            "histogram.max > lots",
        ] {
            assert!(Trigger::parse_when(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn then_clause_parses() {
        assert_eq!(
            Trigger::parse_then("set_output_stride temporal-mean 4").unwrap(),
            TriggerAction::SetOutputStride {
                target: "temporal-mean".into(),
                stride: 4,
            }
        );
        assert_eq!(
            Trigger::parse_then("snapshot_stream m.fp /tmp/snap.txt").unwrap(),
            TriggerAction::SnapshotStream {
                stream: "m.fp".into(),
                path: "/tmp/snap.txt".into(),
            }
        );
        match Trigger::parse_then("raise_fault_policy gromacs restart:2:50").unwrap() {
            TriggerAction::RaiseFaultPolicy { target, policy } => {
                assert_eq!(target, "gromacs");
                assert_eq!(
                    policy,
                    FaultPolicy::restart(2).with_backoff(std::time::Duration::from_millis(50))
                );
            }
            other => panic!("expected raise_fault_policy, got {other:?}"),
        }
        for bad in [
            "set_output_stride temporal-mean",
            "set_output_stride temporal-mean zero",
            "set_output_stride temporal-mean 0",
            "snapshot_stream m.fp",
            "raise_fault_policy gromacs retry",
            "explode",
        ] {
            assert!(Trigger::parse_then(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn unsupported_snapshot_records_skip_and_trace_instant() {
        // Regression: a snapshot_stream action whose backend returns `None`
        // from `Transport::snapshot_stream` used to vanish as a plain
        // `applied: false`. It must surface as a skipped outcome on the
        // fired record plus a `trigger_skipped` trace instant.
        use sb_stream::{EventKind, StreamHub, TraceConfig};
        let hub = StreamHub::new();
        hub.tracer().enable(&TraceConfig::new());
        let engine = TriggerEngine::new(
            vec![Trigger::new(
                "histogram",
                "max",
                TriggerOp::Gt,
                1.0,
                TriggerAction::SnapshotStream {
                    stream: "never.opened".into(),
                    path: "/tmp/never_written_snap.txt".into(),
                },
            )],
            BTreeMap::new(),
            Arc::clone(&hub),
            BTreeMap::new(),
        );
        engine.observe("histogram", "max", 9, 2.0);
        let fired = engine.take_fired();
        assert_eq!(fired.len(), 1, "trigger should have fired: {fired:?}");
        assert!(!fired[0].applied);
        assert!(fired[0].skipped, "unsupported snapshot must be skipped");
        let timeline = hub.tracer().drain();
        let skip = timeline
            .events
            .iter()
            .find(|e| e.kind == EventKind::TriggerSkipped)
            .expect("a trigger_skipped instant on the timeline");
        assert_eq!(skip.stream, "never.opened");
        assert_eq!(skip.step, 9);
    }

    #[test]
    fn trigger_renders_round() {
        let t = Trigger::new(
            "histogram",
            "max",
            TriggerOp::Ge,
            3.5,
            TriggerAction::SetOutputStride {
                target: "temporal-mean".into(),
                stride: 2,
            },
        );
        assert_eq!(
            t.to_string(),
            "when histogram.max >= 3.5 then set_output_stride temporal-mean 2"
        );
    }
}
