//! The one workflow IR: a typed [`WorkflowPlan`].
//!
//! The paper's claim is that a workflow is *assembled*, not programmed: one
//! launch description names generic components and the streams between
//! them. That description is the aprun-style `.sb` script of the paper's
//! Fig. 8, and it lowers once ([`WorkflowPlan::from_script`]) to a plan.
//! Everything downstream consumes that value and nothing else: `sb-lint`
//! lints it ([`lint_plan`]), and `sb-run` and
//! [`Workflow::from_script_file`] lint it the same way, then build their
//! workflow from it ([`WorkflowPlan::workflow`]).
//!
//! ## Multi-process deployment
//!
//! The paper's deployment model is one OS process (group) per component,
//! wired only by stream names over the network. In process, the whole plan
//! becomes one [`Workflow`]; across processes, every participant loads the
//! *same* script, and each runs only its assigned components:
//!
//! ```text
//! terminal 1:  sb-run --script wf.sb --serve 127.0.0.1:7654 --components lammps
//! terminal 2:  sb-run --script wf.sb --connect tcp://127.0.0.1:7654 \
//!                     --components select,magnitude,histogram
//! ```
//!
//! The shared script is the single source of truth for wiring, so the plan
//! assigns every entry the *same* label in every process (the dedup
//! suffixes `-2`, `-3`, … are the ones [`Workflow::add`] derives);
//! component assignment is then by label, and [`WorkflowPlan::workflow`]
//! materializes one process's slice. Run a slice with
//! [`Validation::Skip`](crate::Validation::Skip): it sees only its part of
//! the wiring, so dangling streams there are expected, not errors (lint
//! the full plan instead).

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use sb_stream::{StreamHub, WriterOptions};

use crate::analysis::{lint_plan, LintConfig};
use crate::component::{reader_group_counts, Component};
use crate::error::WorkflowError;
use crate::launch::{LaunchEntry, LaunchError, ScriptDirectives};
use crate::runtime::{unique_label, Workflow};
use crate::triggers::Trigger;

/// One launch entry with the label every process agrees on.
#[derive(Clone)]
pub struct PlannedComponent {
    /// Deduplicated component label (assignment key).
    pub label: String,
    /// The launch entry as its source tokenised it: ranks, program name,
    /// positional arguments, options, `< file` operand, source line.
    pub entry: LaunchEntry,
    /// The instance the plan builder constructed to check the entry's
    /// arguments and derive its label; lints read its declared streams and
    /// signature. [`WorkflowPlan::workflow`] constructs a fresh instance
    /// per workflow, so runs never share component state.
    pub(crate) component: Arc<dyn Component>,
    /// The writer policy of the entry's outputs, from its `queue=` and
    /// `rendezvous=`; `None` when the component writes no stream.
    pub writer_options: Option<WriterOptions>,
}

impl fmt::Debug for PlannedComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlannedComponent")
            .field("label", &self.label)
            .field("entry", &self.entry)
            .field("writer_options", &self.writer_options)
            .finish_non_exhaustive()
    }
}

/// A whole workflow as data: what to launch, how it is partitioned and
/// supervised, and what reacts to its signals.
#[derive(Debug, Clone, Default)]
pub struct WorkflowPlan {
    /// Components in launch order, with the labels every process agrees on.
    pub components: Vec<PlannedComponent>,
    /// Transport, policy, and process directives.
    pub directives: ScriptDirectives,
    /// Reactive `#@ trigger` clauses, in declaration order.
    pub triggers: Vec<Trigger>,
}

/// Plans `entries`: builds each component once with
/// [`LaunchEntry::build`] and labels it exactly as [`Workflow::add`] would,
/// so every process planning the same source computes the same assignment
/// keys. An entry its program refuses becomes one error on its own line;
/// all entries are checked before any error is returned.
pub(crate) fn plan_components(
    entries: Vec<LaunchEntry>,
) -> Result<Vec<PlannedComponent>, Vec<LaunchError>> {
    let mut components: Vec<PlannedComponent> = Vec::with_capacity(entries.len());
    let mut rejected = Vec::new();
    for entry in entries {
        match entry.build() {
            Ok((component, writer_options)) => {
                let label = unique_label(component.label(), |l| {
                    components.iter().any(|c| c.label == l)
                });
                components.push(PlannedComponent {
                    label,
                    entry,
                    component: Arc::from(component),
                    writer_options,
                });
            }
            Err(e) => rejected.push(e),
        }
    }
    if rejected.is_empty() {
        Ok(components)
    } else {
        Err(rejected)
    }
}

impl WorkflowPlan {
    /// Whether a component labelled `label` is planned.
    pub fn declares(&self, label: &str) -> bool {
        self.components.iter().any(|c| c.label == label)
    }

    /// Builds this process's slice as a workflow on `hub`: the components
    /// named in `select` (all of them when `select` is empty), with the
    /// plan's fault and writer policies, triggers, and run defaults
    /// applied. The slice's writers keep each step for every reader group
    /// of the *whole* plan, so a subscriber in another process cannot miss
    /// one. Fault policies whose label the slice does not contain are
    /// skipped (a partial slice only supervises its own components;
    /// `sb-lint` flags genuinely unknown targets as SB014).
    ///
    /// `Err` names the unknown label when `select` asks for a component
    /// the plan does not contain. Lints are not consulted here: whatever
    /// means to run a whole plan lints it first, as `sb-run` and
    /// [`Workflow::from_script_file`] do.
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
            let (component, _) = c
                .entry
                .build()
                .map_err(|e| format!("{}: {}", c.label, e.detail))?;
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
            if let Some(options) = c.writer_options {
                wf.set_writer_options(&c.label, options);
            }
        }
        for trigger in &self.triggers {
            wf.add_trigger(trigger.clone());
        }
        wf.set_plan_reader_groups(reader_group_counts(
            self.components
                .iter()
                .map(|c| (c.label.as_str(), c.component.as_ref())),
        ));
        Ok(wf)
    }
}

impl Workflow {
    /// Loads a `.sb` launch script into a ready-to-run in-process
    /// workflow: components, policies and triggers applied. With the
    /// prelude in scope, the two-line entry point is:
    ///
    /// ```ignore
    /// let wf = Workflow::from_script_file("pipeline.sb")?;
    /// let report = wf.run_with(RunOptions::default())?;
    /// ```
    ///
    /// The script is refused, as `sb-run` refuses it, when it cannot be
    /// read, when a line does not lower, or when the whole plan has an
    /// error-level lint; [`WorkflowError::Invalid`] lists each reason. The
    /// `#@ transport` endpoint is *not* dialed here: a single process runs
    /// the whole workflow in memory, and `sb-run` uses the URL for
    /// multi-process deployments.
    #[allow(clippy::result_large_err)]
    pub fn from_script_file(path: impl AsRef<Path>) -> Result<Workflow, WorkflowError> {
        let name = path.as_ref().display().to_string();
        let invalid = |issues: Vec<String>| WorkflowError::Invalid { issues };
        let text = std::fs::read_to_string(&path)
            .map_err(|e| invalid(vec![format!("reading {name:?}: {e}")]))?;
        let plan = WorkflowPlan::from_script(&text)
            .map_err(|errors| invalid(errors.iter().map(LaunchError::to_string).collect()))?;
        let lint = lint_plan(&name, &plan, &LintConfig::new());
        if lint.errors() > 0 {
            return Err(invalid(
                lint.render_text().lines().map(String::from).collect(),
            ));
        }
        plan.workflow(StreamHub::new(), &[])
            .map_err(|detail| invalid(vec![detail]))
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

    /// Every rejected entry is reported on its own line, with the
    /// component's reason — and never as a panic.
    #[test]
    fn rejected_arguments_are_one_typed_error_per_entry() {
        let script = "histogram a.fp x 0\nmagnitude a.fp x b.fp y queue=lots\nhistogram b.fp y 4\n\
                      magnitude a.fp x";
        let errors = WorkflowPlan::from_script(script).unwrap_err();
        assert_eq!(errors.len(), 3, "{errors:?}");
        assert_eq!(errors[0].line, 1);
        assert_eq!(
            errors[0].detail,
            "component rejected its arguments: histogram needs at least one bin"
        );
        assert_eq!(errors[1].line, 2);
        assert!(errors[1].detail.contains("queue=\"lots\""), "{errors:?}");
        // An argument count off the usage is one more such error, not the
        // end of the import.
        assert_eq!(errors[2].line, 4);
        assert_eq!(
            errors[2].detail,
            "usage: magnitude in-stream in-array out-stream out-array"
        );
    }

    /// The file loader refuses what `sb-run` refuses — an undeclared
    /// trigger reference (SB019), a second policy for one component
    /// (SB020) — naming the script line; a clean script loads and runs.
    #[test]
    fn file_loader_refuses_error_level_lints_on_their_lines() {
        const CLEAN: &str = "gromacs chains=4 len=4 steps=2 interval=2\n\
                             magnitude gromacs.fp coords m.fp r\n\
                             histogram m.fp r 4\n";
        let dir = std::env::temp_dir().join(format!("sb-plan-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: String| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path
        };
        for (name, directive, needle) in [
            (
                "ghost.sb",
                "#@ trigger when ghost.max > 1 then snapshot_stream m.fp /tmp/x",
                ":1: error[SB019]: trigger references component \"ghost\"",
            ),
            (
                "twice.sb",
                "#@ policy gromacs restart:2\n#@ policy gromacs abort",
                ":2: error[SB020]: ",
            ),
        ] {
            let path = write(name, format!("{directive}\n{CLEAN}"));
            let issues = match Workflow::from_script_file(&path) {
                Err(WorkflowError::Invalid { issues }) => issues,
                Err(e) => panic!("{name}: {e}"),
                Ok(_) => panic!("{name} must be refused"),
            };
            assert_eq!(issues.len(), 1, "{issues:?}");
            assert!(issues[0].contains(needle), "{issues:?}");
        }
        let wf = Workflow::from_script_file(write("clean.sb", CLEAN.to_string())).unwrap();
        let report = wf.run_with(RunOptions::new()).unwrap();
        assert_eq!(report.component("histogram").unwrap().stats.steps, 2);
        let missing = Workflow::from_script_file(dir.join("missing.sb"));
        assert!(matches!(missing, Err(WorkflowError::Invalid { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A process's slice declares the writer policy of its own entries,
    /// from their lines, and of no one else's.
    #[test]
    fn a_slice_declares_its_entries_writer_policy() {
        let plan = WorkflowPlan::from_script(
            "gromacs chains=4 len=4 steps=2 interval=1 queue=2\n\
             magnitude gromacs.fp coords m.fp r rendezvous=1\n\
             histogram m.fp r 4",
        )
        .unwrap();
        let hub = StreamHub::new();
        let wf = plan
            .workflow(Arc::clone(&hub), &["gromacs".to_string()])
            .unwrap();
        wf.run_with(RunOptions::new().with_validation(Validation::Skip))
            .unwrap();
        assert_eq!(hub.writer_options("gromacs.fp"), WriterOptions::buffered(2));
        assert_eq!(hub.writer_options("m.fp"), WriterOptions::default());
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
