//! Workflow assembly and execution.
//!
//! A [`Workflow`] is the in-process equivalent of the paper's launch script
//! (Fig. 8): a list of components with process counts, all launched
//! *simultaneously* and connected only by stream names. FlexPath-style
//! blocking lets them come up in any order; the workflow completes when
//! every component's input has ended.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sb_comm::Communicator;
use sb_data::{Chunk, Variable, VariableMeta};
use sb_stream::{StreamHub, TraceConfig, WriterOptions};

use crate::analysis::{self, AnalysisIssue, EntryView, PartitionRule, Severity};
use crate::component::{reader_group_counts, run_steps, Component, StepEnd};
use crate::error::{ComponentResult, WorkflowError};
use crate::metrics::{ComponentReport, WorkflowReport};
use crate::supervisor::{supervise, FaultPolicy, RunOptions, Supervision, Validation};
use crate::triggers::{Trigger, TriggerEngine};

/// An ad-hoc source component built from a closure; every rank calls the
/// closure identically and contributes its slab of the produced variable
/// along dimension 0 (a scalar from rank 0 alone), so the closure must be
/// deterministic in `step`.
struct ClosureSource<F> {
    label: String,
    stream: String,
    produce: F,
}

impl<F> Component for ClosureSource<F>
where
    F: Fn(u64) -> Option<Variable> + Send + Sync + 'static,
{
    fn label(&self) -> String {
        self.label.clone()
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.stream.clone()]
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        run_steps(self, comm, hub, |io| {
            let produce_start = Instant::now();
            let Some(var) = (self.produce)(io.step) else {
                return Ok(StepEnd::Done);
            };
            let comm = io.comm;
            let meta = VariableMeta::describing(&var);
            if let Some(region) =
                PartitionRule::Along(0).region(&var.shape, comm.size(), comm.rank())
            {
                let local = var.extract(&region)?;
                io.put(0, Chunk::new(meta, region, local.data)?);
            }
            Ok(StepEnd::Publish {
                bytes_in: 0,
                compute: produce_start.elapsed(),
            })
        })
    }
}

/// An ad-hoc sink component built from a closure; rank 0 reads every
/// variable whole and hands the map to the closure.
struct ClosureSink<F> {
    label: String,
    stream: String,
    consume: F,
}

impl<F> Component for ClosureSink<F>
where
    F: Fn(u64, &BTreeMap<String, Variable>) + Send + Sync + 'static,
{
    fn label(&self) -> String {
        self.label.clone()
    }

    fn input_streams(&self) -> Vec<String> {
        vec![self.stream.clone()]
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        run_steps(self, comm, hub, |io| {
            let mut bytes_in = 0u64;
            if io.comm.rank() == 0 {
                let reader = &io.inputs[0];
                let mut vars = BTreeMap::new();
                for name in reader.variables() {
                    let v = reader.get_whole(&name)?;
                    bytes_in += v.byte_len() as u64;
                    vars.insert(name, v);
                }
                (self.consume)(io.step, &vars);
            }
            Ok(StepEnd::Publish {
                bytes_in,
                compute: Duration::ZERO,
            })
        })
    }
}

/// A problem found by [`Workflow::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WiringIssue {
    /// A stream is consumed but no component produces it: the readers
    /// would block until the hub's deadlock timeout.
    NoWriter {
        /// The dangling stream name.
        stream: String,
        /// Components that read it.
        readers: Vec<String>,
    },
    /// A stream is produced but nothing consumes it: the writer stalls
    /// once its buffer fills.
    NoReader {
        /// The unread stream name.
        stream: String,
        /// Components that write it.
        writers: Vec<String>,
    },
    /// Two components write the same stream; a stream has exactly one
    /// writer group.
    MultipleWriters {
        /// The contested stream name.
        stream: String,
        /// Components that write it.
        writers: Vec<String>,
    },
}

impl std::fmt::Display for WiringIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WiringIssue::NoWriter { stream, readers } => {
                write!(
                    f,
                    "stream {stream:?} is read by {readers:?} but written by nothing"
                )
            }
            WiringIssue::NoReader { stream, writers } => {
                write!(
                    f,
                    "stream {stream:?} is written by {writers:?} but read by nothing"
                )
            }
            WiringIssue::MultipleWriters { stream, writers } => {
                write!(f, "stream {stream:?} has multiple writers: {writers:?}")
            }
        }
    }
}

/// `base`, or the first of `base-2`, `base-3`, … that is not `taken`: the
/// one label-dedup rule, shared by [`Workflow::add`] and the plan builder so
/// every process derives the same labels from the same source.
pub(crate) fn unique_label(base: String, taken: impl Fn(&str) -> bool) -> String {
    if !taken(&base) {
        return base;
    }
    let mut n = 2;
    loop {
        let candidate = format!("{base}-{n}");
        if !taken(&candidate) {
            return candidate;
        }
        n += 1;
    }
}

struct Entry {
    label: String,
    nranks: usize,
    component: Arc<dyn Component>,
    /// 1-based source line this entry came from, when the workflow was
    /// built from a plan; threaded into lint diagnostics.
    line: Option<usize>,
    /// The policy every stream the component writes opens under.
    writer_options: WriterOptions,
}

/// A workflow under assembly: components plus the stream hub that connects
/// them.
pub struct Workflow {
    hub: Arc<StreamHub>,
    entries: Vec<Entry>,
    /// Per-component fault-policy overrides, by label.
    policies: BTreeMap<String, FaultPolicy>,
    /// Reactive trigger clauses, evaluated against published signals.
    triggers: Vec<Trigger>,
    /// Reader groups per stream of the whole plan this workflow is a slice
    /// of; `None` counts this workflow's own entries.
    reader_groups: Option<BTreeMap<String, usize>>,
}

impl Default for Workflow {
    fn default() -> Self {
        Workflow::new()
    }
}

impl Workflow {
    /// A workflow over a fresh stream hub.
    pub fn new() -> Workflow {
        Workflow::with_hub(StreamHub::new())
    }

    /// A workflow over an existing hub (lets callers attach out-of-band
    /// readers/writers, e.g. the bench harnesses).
    pub fn with_hub(hub: Arc<StreamHub>) -> Workflow {
        Workflow {
            hub,
            entries: Vec::new(),
            policies: BTreeMap::new(),
            triggers: Vec::new(),
            reader_groups: None,
        }
    }

    /// The hub components will rendezvous on.
    pub fn hub(&self) -> &Arc<StreamHub> {
        &self.hub
    }

    /// Adds a component with `nranks` ranks, deriving its label (repeated
    /// labels get `-2`, `-3`, … suffixes, mirroring the paper's
    /// "Dim-Reduce 1"/"Dim-Reduce 2").
    pub fn add<C: Component>(&mut self, nranks: usize, component: C) -> &mut Self {
        let label = unique_label(component.label(), |l| {
            self.entries.iter().any(|e| e.label == l)
        });
        self.add_labeled(label, nranks, component)
    }

    /// Adds a component under an explicit label.
    pub fn add_labeled<C: Component>(
        &mut self,
        label: impl Into<String>,
        nranks: usize,
        component: C,
    ) -> &mut Self {
        self.push_entry(label.into(), nranks, Arc::new(component), None)
    }

    /// Adds an already-labelled component, recording the 1-based source
    /// line it was planned from (threaded into lint diagnostics). Every
    /// label enters here: it must be new, and it may not contain `#`, which
    /// the group rule reserves for a component's further reads of one
    /// stream (`combine#1` would join Combine's second group).
    pub(crate) fn push_entry(
        &mut self,
        label: String,
        nranks: usize,
        component: Arc<dyn Component>,
        line: Option<usize>,
    ) -> &mut Self {
        assert!(nranks > 0, "a component needs at least one rank");
        assert!(
            self.entries.iter().all(|e| e.label != label),
            "duplicate component label {label:?}"
        );
        assert!(
            !label.contains('#'),
            "component label {label:?} contains '#', which is reserved for reader groups"
        );
        self.entries.push(Entry {
            label,
            nranks,
            component,
            line,
            writer_options: WriterOptions::default(),
        });
        self
    }

    /// Adds an ad-hoc source producing one variable per step from a
    /// closure (`None` ends the stream). The closure runs identically on
    /// every rank, so it must be deterministic in `step`.
    pub fn add_source<F>(
        &mut self,
        label: impl Into<String>,
        nranks: usize,
        stream: impl Into<String>,
        produce: F,
    ) -> &mut Self
    where
        F: Fn(u64) -> Option<Variable> + Send + Sync + 'static,
    {
        let label = label.into();
        self.add_labeled(
            label.clone(),
            nranks,
            ClosureSource {
                label,
                stream: stream.into(),
                produce,
            },
        )
    }

    /// Adds an ad-hoc sink whose closure sees every variable of every step
    /// (on rank 0).
    pub fn add_sink<F>(
        &mut self,
        label: impl Into<String>,
        nranks: usize,
        stream: impl Into<String>,
        consume: F,
    ) -> &mut Self
    where
        F: Fn(u64, &BTreeMap<String, Variable>) + Send + Sync + 'static,
    {
        let label = label.into();
        self.add_labeled(
            label.clone(),
            nranks,
            ClosureSink {
                label,
                stream: stream.into(),
                consume,
            },
        )
    }

    /// Labels in launch order.
    pub fn labels(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.label.as_str()).collect()
    }

    /// Overrides the fault policy for the component labelled `label`
    /// (components without an override use the policy in
    /// [`RunOptions::fault_policy`]).
    pub fn set_fault_policy(&mut self, label: impl Into<String>, policy: FaultPolicy) -> &mut Self {
        self.policies.insert(label.into(), policy);
        self
    }

    /// Sets the writer policy — queue depth, rendezvous — of every stream
    /// the component labelled `label` writes. Components without one write
    /// under [`WriterOptions::default`]. This is the one place a workflow
    /// says how its writers buffer; a `.sb` line's `queue=`/`rendezvous=`
    /// lower to it.
    ///
    /// # Panics
    ///
    /// When no component is labelled `label`, or when that component writes
    /// no stream.
    pub fn set_writer_options(&mut self, label: &str, options: WriterOptions) -> &mut Self {
        let Some(entry) = self.entries.iter_mut().find(|e| e.label == label) else {
            panic!("no component labelled {label:?} to set writer options on");
        };
        assert!(
            !entry.component.output_streams().is_empty(),
            "component {label:?} writes no stream to set writer options on"
        );
        entry.writer_options = options;
        self
    }

    /// Adds a reactive trigger clause: `when component.signal op value then
    /// action`, evaluated synchronously at each matching signal publication
    /// during [`Workflow::run_with`]. Triggers fire once; fired records land
    /// on [`WorkflowReport::triggers`].
    pub fn add_trigger(&mut self, trigger: Trigger) -> &mut Self {
        self.triggers.push(trigger);
        self
    }

    /// The declared trigger clauses, in declaration order.
    pub fn triggers(&self) -> &[Trigger] {
        &self.triggers
    }

    /// Counts reader groups over the whole plan this workflow is a slice
    /// of, so its writers wait for subscribers in other processes.
    pub(crate) fn set_plan_reader_groups(&mut self, counts: BTreeMap<String, usize>) {
        self.reader_groups = Some(counts);
    }

    /// Static workflow analysis: wiring diagnostics (dangling or contested
    /// streams), subscription-cycle detection, and
    /// [`ArraySpec`](crate::analysis::ArraySpec) propagation through every
    /// component's declared [`signature`](Component::signature), catching
    /// contract violations (unknown labels, out-of-range axes, shape
    /// mismatches, degenerate histograms) and over-decomposition before
    /// any rank is launched.
    ///
    /// Components that declare nothing (custom `Component` impls using the
    /// default trait methods) propagate opaque streams, which silence the
    /// spec checks, so an empty result is strong evidence, not proof, of a
    /// well-formed workflow. Use [`AnalysisIssue::severity`] to separate
    /// fatal errors from advisories.
    pub fn validate(&self) -> Vec<AnalysisIssue> {
        analysis::analyze(&self.views(), &self.policies)
    }

    /// [`Workflow::validate`] as leveled, source-located
    /// [`Diagnostic`](crate::analysis::Diagnostic)s: issues are filtered
    /// and re-leveled by `config` (lints set to `allow` disappear), and
    /// each diagnostic carries the launch-script line of the offending
    /// component when the workflow was assembled from a script.
    pub fn lint(&self, config: &analysis::LintConfig) -> Vec<analysis::Diagnostic> {
        analysis::lint_entries(&self.views(), &self.policies, &Default::default(), config)
    }

    fn views(&self) -> Vec<EntryView<'_>> {
        self.entries
            .iter()
            .map(|e| EntryView {
                label: &e.label,
                nranks: e.nranks,
                component: e.component.as_ref(),
                line: e.line,
            })
            .collect()
    }

    /// Launches every component simultaneously (each rank on its own
    /// thread) under supervision and blocks until all of them finish,
    /// returning the paper's end-to-end measurements.
    ///
    /// `options` controls static validation ([`Validation`]), the default
    /// per-component [`FaultPolicy`] (override individual components with
    /// [`Workflow::set_fault_policy`]), and an optional hub-timeout
    /// override. Under the default options this behaves like the old
    /// `run()`: fail fast on fatal validation issues, abort the workflow on
    /// the first component failure — but the failure arrives as a typed
    /// [`WorkflowError`] and blocked peers are poisoned instead of left to
    /// time out.
    // The error carries the full failure context by value; a workflow
    // returns once per run, so the large-variant cost is irrelevant and
    // boxing would only hurt callers' pattern matching.
    #[allow(clippy::result_large_err)]
    pub fn run_with(self, options: RunOptions) -> Result<WorkflowReport, WorkflowError> {
        if options.validation == Validation::FailFast {
            let fatal: Vec<String> = self
                .validate()
                .into_iter()
                .filter(|i| i.severity() == Severity::Error)
                .map(|i| i.to_string())
                .collect();
            if !fatal.is_empty() {
                return Err(WorkflowError::Invalid { issues: fatal });
            }
        }
        let Workflow {
            hub,
            entries,
            policies,
            triggers,
            reader_groups,
        } = self;
        if let Some(timeout) = options.hub_timeout {
            hub.set_wait_timeout(timeout);
        }
        // Before any writer opens: each stream keeps a step until every
        // reader group of the plan has it, however late one attaches.
        let reader_groups = reader_groups.unwrap_or_else(|| {
            reader_group_counts(
                entries
                    .iter()
                    .map(|e| (e.label.as_str(), e.component.as_ref())),
            )
        });
        for (stream, groups) in &reader_groups {
            hub.set_reader_groups(stream, *groups);
        }
        // ...and each output opens, and a restart reopens, under its
        // entry's writer policy.
        for entry in &entries {
            for stream in entry.component.output_streams() {
                hub.set_writer_options(&stream, entry.writer_options);
            }
        }
        // Arm the tracer before any component thread spawns so the very
        // first step is on the timeline. Precedence: RunOptions, then
        // `SB_TRACE` (non-empty, not "0"), which enables the default config
        // without touching call sites.
        let trace_config = options
            .trace
            .clone()
            .or_else(|| match std::env::var("SB_TRACE") {
                Ok(v) if !v.is_empty() && v != "0" => Some(TraceConfig::new()),
                _ => None,
            });
        if let Some(config) = &trace_config {
            hub.tracer().enable(config);
        }
        // One live policy slot per component, shared between its supervisor
        // (which re-reads it at each failure decision) and the trigger
        // engine (whose `raise_fault_policy` action replaces the contents).
        let policy_slots: BTreeMap<String, Arc<Mutex<FaultPolicy>>> = entries
            .iter()
            .map(|entry| {
                let policy = policies
                    .get(&entry.label)
                    .cloned()
                    .unwrap_or_else(|| options.fault_policy.clone());
                (entry.label.clone(), Arc::new(Mutex::new(policy)))
            })
            .collect();
        // Arm the trigger engine on the hub's signal board before any rank
        // spawns: the hook runs synchronously at each signal publication.
        let engine = (!triggers.is_empty()).then(|| {
            let components: BTreeMap<String, Arc<dyn Component>> = entries
                .iter()
                .map(|entry| (entry.label.clone(), Arc::clone(&entry.component)))
                .collect();
            Arc::new(TriggerEngine::new(
                triggers,
                components,
                Arc::clone(&hub),
                policy_slots.clone(),
            ))
        });
        if let Some(engine) = &engine {
            let observer = Arc::clone(engine);
            hub.signals()
                .arm(Box::new(move |component, signal, step, value| {
                    observer.observe(component, signal, step, value);
                }));
        }
        let start = Instant::now();
        let sup = Arc::new(Supervision::new(Arc::clone(&hub)));
        let supervisors: Vec<std::thread::JoinHandle<ComponentReport>> = entries
            .into_iter()
            .map(|entry| {
                let policy = Arc::clone(&policy_slots[&entry.label]);
                let sup = Arc::clone(&sup);
                std::thread::Builder::new()
                    .name(format!("supervisor/{}", entry.label))
                    .spawn(move || {
                        supervise(&entry.label, entry.nranks, entry.component, &policy, &sup)
                    })
                    .expect("spawning a supervisor thread")
            })
            .collect();
        let components: Vec<ComponentReport> = supervisors
            .into_iter()
            .map(|h| h.join().expect("a supervisor thread panicked"))
            .collect();
        let fired = match &engine {
            Some(engine) => {
                hub.signals().disarm();
                engine.take_fired()
            }
            None => Vec::new(),
        };
        let timeline = if trace_config.is_some() {
            let timeline = hub.tracer().drain();
            hub.tracer().disable();
            timeline
        } else {
            sb_stream::Timeline::default()
        };
        if let Some((label, attempts, error)) = sup.take_first_failure() {
            return Err(WorkflowError::ComponentFailed {
                label,
                attempts,
                error,
            });
        }
        Ok(WorkflowReport {
            elapsed: start.elapsed(),
            components,
            streams: hub.all_metrics(),
            timeline,
            triggers: fired,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_data::{Buffer, Shape};

    fn counter_variable(step: u64, n: usize) -> Variable {
        let data: Vec<f64> = (0..n).map(|i| (i as u64 + step) as f64).collect();
        Variable::new("x", Shape::linear("n", n), Buffer::from(data)).unwrap()
    }

    #[test]
    fn source_sink_workflow_round_trips() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let mut wf = Workflow::new();
        wf.add_source("gen", 2, "w.fp", |step| {
            (step < 5).then(|| counter_variable(step, 12))
        });
        wf.add_sink("check", 3, "w.fp", move |step, vars| {
            let v = &vars["x"];
            assert_eq!(v.shape.total_len(), 12);
            assert_eq!(v.data.get_f64(3), (3 + step) as f64);
            seen2.fetch_add(1, Ordering::SeqCst);
        });
        let report = wf.run_with(RunOptions::default()).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 5);
        assert_eq!(report.component("gen").unwrap().stats.steps, 5);
        assert_eq!(report.component("check").unwrap().stats.steps, 5);
        assert_eq!(report.total_ranks(), 5);
        assert_eq!(report.streams.len(), 1);
        assert_eq!(report.streams[0].steps_consumed, 5);
    }

    /// The workflow's writer policy reaches an `add_source` entry: under
    /// rendezvous the source produces step k + 1 only once its sink has
    /// released step k, however long the sink holds it.
    #[test]
    fn a_rendezvous_source_commits_a_step_only_after_its_sink_released_the_last() {
        const STEPS: u64 = 4;
        let log = Arc::new(Mutex::new(Vec::new()));
        let (produced, held) = (Arc::clone(&log), Arc::clone(&log));
        let mut wf = Workflow::new();
        wf.add_source("gen", 1, "r.fp", move |step| {
            sb_data::lock(&produced).push(format!("produce {step}"));
            (step < STEPS).then(|| counter_variable(step, 4))
        });
        wf.add_sink("slow", 1, "r.fp", move |step, _| {
            std::thread::sleep(Duration::from_millis(20));
            // The sink releases the step only after this returns.
            sb_data::lock(&held).push(format!("held {step}"));
        });
        wf.set_writer_options("gen", WriterOptions::rendezvous());
        wf.run_with(RunOptions::default()).unwrap();
        let log = sb_data::lock(&log);
        for step in 0..STEPS {
            let at = |event: String| log.iter().position(|e| *e == event).unwrap();
            let (held, next) = (
                at(format!("held {step}")),
                at(format!("produce {}", step + 1)),
            );
            assert!(
                held < next,
                "step {} produced before {step} was released: {log:?}",
                step + 1
            );
        }
    }

    #[test]
    #[should_panic(expected = "no component labelled \"ghost\"")]
    fn writer_options_for_an_unknown_label_are_refused() {
        let mut wf = Workflow::new();
        wf.add_source("gen", 1, "a.fp", |_| None);
        wf.set_writer_options("ghost", WriterOptions::rendezvous());
    }

    #[test]
    #[should_panic(expected = "component \"end\" writes no stream")]
    fn writer_options_for_a_component_that_writes_nothing_are_refused() {
        let mut wf = Workflow::new();
        wf.add_sink("end", 1, "a.fp", |_, _| {});
        wf.set_writer_options("end", WriterOptions::buffered(2));
    }

    #[test]
    fn labels_deduplicate() {
        let mut wf = Workflow::new();
        wf.add(1, crate::DimReduce::new(("a.fp", "x"), 0, 1, ("b.fp", "x")));
        wf.add(1, crate::DimReduce::new(("b.fp", "x"), 0, 1, ("c.fp", "x")));
        wf.add(1, crate::DimReduce::new(("c.fp", "x"), 0, 1, ("d.fp", "x")));
        assert_eq!(
            wf.labels(),
            vec!["dim-reduce", "dim-reduce-2", "dim-reduce-3"]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate component label")]
    fn explicit_duplicate_labels_rejected() {
        let mut wf = Workflow::new();
        wf.add_source("s", 1, "a.fp", |_| None);
        wf.add_source("s", 1, "b.fp", |_| None);
    }

    #[test]
    fn validate_finds_wiring_problems() {
        let mut wf = Workflow::new();
        // select reads a stream nothing writes, and writes one nothing reads.
        wf.add(
            1,
            crate::Select::new(("ghost.fp", "x"), 0, ["a"], ("dead.fp", "y")),
        );
        let issues = wf.validate();
        assert_eq!(issues.len(), 2, "{issues:?}");
        assert!(issues.iter().any(|i| matches!(
            i,
            AnalysisIssue::Wiring(WiringIssue::NoWriter { stream, .. }) if stream == "ghost.fp"
        )));
        assert!(issues.iter().any(|i| matches!(
            i,
            AnalysisIssue::Wiring(WiringIssue::NoReader { stream, .. }) if stream == "dead.fp"
        )));
        assert!(issues[0].to_string().contains(".fp"));
    }

    #[test]
    fn validate_accepts_a_complete_pipeline() {
        let mut wf = Workflow::new();
        wf.add_source("gen", 1, "a.fp", |_| None);
        wf.add(1, crate::Magnitude::new(("a.fp", "x"), ("b.fp", "y")));
        wf.add(1, crate::Histogram::new(("b.fp", "y"), 4));
        assert!(wf.validate().is_empty(), "{:?}", wf.validate());
    }

    #[test]
    fn validate_flags_duplicate_writers() {
        let mut wf = Workflow::new();
        wf.add_source("gen-a", 1, "x.fp", |_| None);
        wf.add_source("gen-b", 1, "x.fp", |_| None);
        wf.add_sink("end", 1, "x.fp", |_, _| {});
        let issues = wf.validate();
        assert!(issues.iter().any(|i| matches!(
            i,
            AnalysisIssue::Wiring(WiringIssue::MultipleWriters { writers, .. })
                if writers.len() == 2
        )));
    }

    #[test]
    fn failing_component_surfaces_as_typed_error() {
        let hub = StreamHub::with_timeout(Duration::from_millis(200));
        let mut wf = Workflow::with_hub(hub);
        wf.add_source("gen", 1, "w.fp", |step| {
            (step < 1).then(|| counter_variable(step, 4))
        });
        // The sink asks for a variable that does not exist -> data error.
        wf.add(1, crate::Histogram::new(("w.fp", "missing"), 4));
        let err = wf.run_with(RunOptions::default()).unwrap_err();
        match &err {
            WorkflowError::ComponentFailed {
                label,
                attempts,
                error,
            } => {
                assert_eq!(label, "histogram");
                assert_eq!(*attempts, 1);
                assert!(
                    matches!(error, crate::ComponentError::Data { .. }),
                    "unexpected error: {error:?}"
                );
            }
            other => panic!("expected ComponentFailed, got {other:?}"),
        }
        assert!(err.to_string().contains("missing"), "{err}");
    }
}
