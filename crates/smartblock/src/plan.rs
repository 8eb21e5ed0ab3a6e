//! The one workflow IR: a typed [`WorkflowPlan`].
//!
//! The paper's claim is that a workflow is *assembled*, not programmed: one
//! launch description names generic components and the streams between
//! them. This crate reads two such descriptions — the aprun-style `.sb`
//! script of the paper's Fig. 8 ([`WorkflowPlan::from_script`]) and the
//! declarative `.sbw` spec ([`WorkflowPlan::from_spec`]) — and both lower,
//! once, to the same plan. Everything downstream consumes that value and
//! nothing else: `sb-lint` lints it
//! ([`lint_plan`](crate::analysis::lint_plan)), `sb-run` and
//! [`Workflow::from_spec`] build their workflow from it
//! ([`WorkflowPlan::workflow`]). Whatever means to run a plan takes it from
//! [`WorkflowPlan::load`], which refuses deny-level spec issues; the linter
//! takes it from [`WorkflowPlan::lower`], which keeps them to report.
//!
//! ## Multi-process deployment
//!
//! The paper's deployment model is one OS process (group) per component,
//! wired only by stream names over the network. In process, the whole plan
//! becomes one [`Workflow`]; across processes, every participant loads the
//! *same* source, and each runs only its assigned components:
//!
//! ```text
//! terminal 1:  sb-run --script wf.sb --serve 127.0.0.1:7654 --components lammps
//! terminal 2:  sb-run --script wf.sb --connect tcp://127.0.0.1:7654 \
//!                     --components select,magnitude,histogram
//! ```
//!
//! The shared source is the single source of truth for wiring, so the plan
//! assigns every entry the *same* label in every process (the dedup
//! suffixes `-2`, `-3`, … are the ones [`Workflow::add`] derives);
//! component assignment is then by label, and [`WorkflowPlan::workflow`]
//! materializes one process's slice. Run a slice with
//! [`Validation::Skip`](crate::Validation::Skip): it sees only its part of
//! the wiring, so dangling streams there are expected, not errors (lint
//! the full plan instead).

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use sb_stream::{Compression, StreamHub, TraceConfig, WireProtocol};

use crate::component::Component;
use crate::launch::{err, LaunchEntry, LaunchError, ScriptDirectives};
use crate::runtime::{unique_label, Workflow};
use crate::spec::SpecIssue;
use crate::triggers::Trigger;
use crate::workflows::instantiate_entry;

/// One launch entry with the label every process agrees on.
#[derive(Clone)]
pub struct PlannedComponent {
    /// Deduplicated component label (assignment key).
    pub label: String,
    /// The typed launch entry: ranks, program, options, source line.
    pub entry: LaunchEntry,
    /// The instance the plan builder constructed to check the entry's
    /// arguments and derive its label; lints read its declared streams and
    /// signature. [`WorkflowPlan::workflow`] constructs a fresh instance
    /// per workflow, so runs never share component state.
    pub(crate) component: Arc<dyn Component>,
}

impl fmt::Debug for PlannedComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlannedComponent")
            .field("label", &self.label)
            .field("entry", &self.entry)
            .finish_non_exhaustive()
    }
}

/// A whole workflow as data: what to launch, how it is partitioned and
/// supervised, and the run defaults its source declared.
#[derive(Debug, Clone, Default)]
pub struct WorkflowPlan {
    /// The `[workflow] name`, when declared.
    pub name: Option<String>,
    /// Components in launch order, with the labels every process agrees on.
    pub components: Vec<PlannedComponent>,
    /// Transport, policy, and process directives.
    pub directives: ScriptDirectives,
    /// Reactive trigger clauses, in declaration order (a `.sb` script
    /// cannot declare any).
    pub triggers: Vec<Trigger>,
    /// The `[trace]` table, when present and enabled.
    pub trace: Option<TraceConfig>,
    /// The `[transport] timeout_secs`, when declared.
    pub hub_timeout: Option<Duration>,
    /// The `[transport] protocol`, when declared.
    pub protocol: Option<WireProtocol>,
    /// The `[transport] compression`, when declared.
    pub compression: Option<Compression>,
    /// Spec-level issues (SB018–SB020), in source order.
    pub issues: Vec<SpecIssue>,
}

/// Plans `entries`: constructs each component once — the single place a
/// launch description's arguments meet a constructor before launch — and
/// labels it exactly as [`Workflow::add`] would, so every process planning
/// the same source computes the same assignment keys. A component that
/// rejects its arguments becomes one error on its own line; all entries are
/// checked before any error is returned.
pub(crate) fn plan_components(
    entries: Vec<LaunchEntry>,
) -> Result<Vec<PlannedComponent>, Vec<LaunchError>> {
    let mut components: Vec<PlannedComponent> = Vec::with_capacity(entries.len());
    let mut rejected = Vec::new();
    for entry in entries {
        match instantiate_entry(&entry) {
            Ok(component) => {
                let label = unique_label(component.label(), |l| {
                    components.iter().any(|c| c.label == l)
                });
                components.push(PlannedComponent {
                    label,
                    entry,
                    component: Arc::from(component),
                });
            }
            Err(reason) => rejected.push(err(
                entry.line,
                format!("component rejected its arguments: {reason}"),
            )),
        }
    }
    if rejected.is_empty() {
        Ok(components)
    } else {
        Err(rejected)
    }
}

impl WorkflowPlan {
    /// Lowers workflow source text to a plan, choosing the front-end by the
    /// source name: `*.sbw` compiles as a declarative spec, anything else
    /// imports as an aprun-style launch script. `Err` lists every line
    /// that stopped the lowering. The plan keeps its spec-level issues,
    /// deny-level ones included, so a linter can report them all; anything
    /// that means to *run* the plan wants [`WorkflowPlan::load`].
    pub fn lower(name: &str, text: &str) -> Result<WorkflowPlan, Vec<LaunchError>> {
        if name.ends_with(".sbw") {
            WorkflowPlan::from_spec(text)
        } else {
            WorkflowPlan::from_script(text)
        }
    }

    /// Lowers workflow source text to a plan that may run:
    /// [`WorkflowPlan::lower`], then [`WorkflowPlan::runnable`].
    pub fn load(name: &str, text: &str) -> Result<WorkflowPlan, Vec<LaunchError>> {
        WorkflowPlan::lower(name, text)?.runnable()
    }

    /// Refuses a plan that carries deny-level spec issues (an undeclared
    /// trigger reference, conflicting constructs): each becomes one error
    /// on the issue's own line. Warn-level issues (unknown keys) pass.
    pub fn runnable(self) -> Result<WorkflowPlan, Vec<LaunchError>> {
        let denied: Vec<LaunchError> = self
            .issues
            .iter()
            .filter(|i| i.is_deny())
            .map(|i| err(i.line(), i.to_string()))
            .collect();
        if denied.is_empty() {
            Ok(self)
        } else {
            Err(denied)
        }
    }

    /// Whether a component labelled `label` is planned.
    pub fn declares(&self, label: &str) -> bool {
        self.components.iter().any(|c| c.label == label)
    }

    /// Builds this process's slice as a workflow on `hub`: the components
    /// named in `select` (all of them when `select` is empty), with the
    /// plan's policies, triggers, and run defaults applied. Policies whose
    /// label the slice does not contain are skipped (a partial slice only
    /// supervises its own components; `sb-lint` flags genuinely unknown
    /// targets as SB014).
    ///
    /// `Err` names the unknown label when `select` asks for a component
    /// the plan does not contain. Spec issues are not consulted here: take
    /// the plan from [`WorkflowPlan::load`], which refuses deny-level ones.
    pub fn workflow(&self, hub: Arc<StreamHub>, select: &[String]) -> Result<Workflow, String> {
        for wanted in select {
            if !self.declares(wanted) {
                let known: Vec<&str> = self.components.iter().map(|c| c.label.as_str()).collect();
                return Err(format!(
                    "unknown component {wanted:?}; the workflow defines {known:?}"
                ));
            }
        }
        let mut wf = Workflow::with_hub(hub);
        for c in &self.components {
            if !select.is_empty() && !select.contains(&c.label) {
                continue;
            }
            let component = instantiate_entry(&c.entry).map_err(|e| format!("{}: {e}", c.label))?;
            wf.push_entry(
                c.label.clone(),
                c.entry.nranks,
                Arc::from(component),
                Some(c.entry.line),
            );
            for p in self
                .directives
                .policies
                .iter()
                .filter(|p| p.label == c.label)
            {
                wf.set_fault_policy(p.label.clone(), p.policy.clone());
            }
        }
        for trigger in &self.triggers {
            wf.add_trigger(trigger.clone());
        }
        wf.default_trace = self.trace.clone();
        wf.default_hub_timeout = self.hub_timeout;
        Ok(wf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::{RunOptions, Validation};
    use sb_stream::tcp::TcpBroker;

    const SCRIPT: &str = r#"
        #@ transport tcp://127.0.0.1:7654
        aprun -n 2 gromacs chains=4 len=4 steps=3 interval=2 &
        aprun -n 2 magnitude gromacs.fp coords m.fp r &
        aprun -n 1 histogram m.fp r 4 &
        wait
    "#;

    fn labels(plan: &WorkflowPlan) -> Vec<&str> {
        plan.components.iter().map(|c| c.label.as_str()).collect()
    }

    #[test]
    fn plan_labels_match_workflow_labels() {
        let script = r#"
            aprun -n 1 dim-reduce a.fp x 0 1 b.fp x &
            aprun -n 1 dim-reduce b.fp x 0 1 c.fp x &
            aprun -n 1 histogram c.fp x 4 &
        "#;
        let plan = WorkflowPlan::from_script(script).unwrap();
        assert_eq!(labels(&plan), ["dim-reduce", "dim-reduce-2", "histogram"]);
        let wf = plan.workflow(StreamHub::new(), &[]).unwrap();
        assert_eq!(wf.labels(), labels(&plan));
    }

    #[test]
    fn workflow_selects_by_label() {
        let plan = WorkflowPlan::from_script(SCRIPT).unwrap();
        assert_eq!(
            plan.directives.transport.as_deref(),
            Some("tcp://127.0.0.1:7654")
        );
        let wf = plan
            .workflow(
                StreamHub::new(),
                &["magnitude".to_string(), "histogram".to_string()],
            )
            .unwrap();
        assert_eq!(wf.labels(), vec!["magnitude", "histogram"]);
        let all = plan.workflow(StreamHub::new(), &[]).unwrap();
        assert_eq!(all.labels(), vec!["gromacs", "magnitude", "histogram"]);
        let err = match plan.workflow(StreamHub::new(), &["nope".to_string()]) {
            Err(e) => e,
            Ok(_) => panic!("unknown label must be rejected"),
        };
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn scripts_and_specs_load_to_the_same_plan() {
        const SPEC: &str = r#"
[transport]
url = "tcp://127.0.0.1:7654"
protocol = "v1"
timeout_secs = 9

[[component]]
program = "gromacs"
ranks = 2
args = ["chains=4", "len=4", "steps=3", "interval=2"]

[[component]]
program = "magnitude"
ranks = 2
args = ["gromacs.fp", "coords", "m.fp", "r"]

[[component]]
program = "histogram"
args = ["m.fp", "r", "4"]
"#;
        let script = WorkflowPlan::load("wf.sb", SCRIPT).unwrap();
        let spec = WorkflowPlan::load("wf.sbw", SPEC).unwrap();
        assert_eq!(labels(&script), labels(&spec));
        assert_eq!(script.directives.transport, spec.directives.transport);
        assert_eq!(spec.protocol, Some(WireProtocol::V1));
        assert_eq!(spec.hub_timeout, Some(Duration::from_secs(9)));
        assert!(script.protocol.is_none(), "scripts carry no wire options");

        let wf = spec.workflow(StreamHub::new(), &[]).unwrap();
        assert_eq!(wf.labels(), vec!["gromacs", "magnitude", "histogram"]);
    }

    /// Every rejected entry is reported on its own line, with the
    /// component's reason, in either language — and never as a panic.
    #[test]
    fn rejected_arguments_are_one_typed_error_per_entry() {
        let script = "histogram a.fp x 0\nmagnitude a.fp x b.fp y queue=lots\nhistogram b.fp y 4";
        let spec = "[[component]]\nprogram = \"histogram\"\nargs = [\"a.fp\", \"x\", \"0\"]\n\n\
                    [[component]]\nprogram = \"aio\"\nargs = [\"a.fp\", \"x\", \"0\", \"vx\"]\n";
        let errors = WorkflowPlan::load("bad.sb", script).unwrap_err();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert_eq!(errors[0].line, 1);
        assert_eq!(
            errors[0].detail,
            "component rejected its arguments: histogram needs at least one bin"
        );
        assert_eq!(errors[1].line, 2);
        assert!(errors[1].detail.contains("queue=\"lots\""), "{errors:?}");
        let errors = WorkflowPlan::load("bad.sbw", spec).unwrap_err();
        assert_eq!(errors.iter().map(|e| e.line).collect::<Vec<_>>(), [1, 5]);
        assert!(errors[0].detail.contains("at least one bin"), "{errors:?}");
    }

    /// Deny-level spec issues stop the loader every runner goes through,
    /// on the issue's own line; the lint front door keeps them as issues.
    #[test]
    fn loader_refuses_deny_level_spec_issues() {
        const SPEC: &str = "[[component]]\nprogram = \"histogram\"\nargs = [\"a.fp\", \"x\", \"4\"]\n\n\
                            [[trigger]]\nwhen = \"ghost.max > 1\"\nthen = \"snapshot_stream a.fp /tmp/x\"\n";
        let errors = WorkflowPlan::load("bad.sbw", SPEC).unwrap_err();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].line, 5);
        assert!(errors[0].detail.contains("ghost"), "{errors:?}");
        let plan = WorkflowPlan::lower("bad.sbw", SPEC).unwrap();
        assert!(plan.issues[0].is_deny(), "{:?}", plan.issues);
    }

    #[test]
    fn plan_splits_across_tcp_hubs() {
        let plan = WorkflowPlan::from_script(SCRIPT).unwrap();
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        let url = broker.url();
        let options = || RunOptions::new().with_validation(Validation::Skip);

        // "Process" A: the simulation, over its own TCP connection.
        let plan_a = plan.clone();
        let url_a = url.clone();
        let sim = std::thread::spawn(move || {
            let hub = StreamHub::connect(&url_a).unwrap();
            let wf = plan_a.workflow(hub, &["gromacs".to_string()]).unwrap();
            wf.run_with(options()).expect("simulation side")
        });
        // "Process" B: the analysis chain, over another connection.
        let hub = StreamHub::connect(&url).unwrap();
        let wf = plan
            .workflow(hub, &["magnitude".to_string(), "histogram".to_string()])
            .unwrap();
        let analysis = wf.run_with(options()).unwrap();
        let sim = sim.join().unwrap();

        assert_eq!(sim.component("gromacs").unwrap().stats.steps, 3);
        assert_eq!(analysis.component("histogram").unwrap().stats.steps, 3);
    }
}
