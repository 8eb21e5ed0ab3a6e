//! Plan-level linting: [`lint_plan`] runs the full pipeline over a
//! [`WorkflowPlan`], producing [`Diagnostic`](super::Diagnostic)s with
//! source lines; [`lint_source`] lowers source text first and reports what
//! stops the lowering as SB000.
//!
//! On top of the model-level passes shared with
//! [`Workflow::lint`](crate::Workflow::lint), four passes exist only
//! here because they read plan artifacts a programmatic workflow does not
//! carry:
//!
//! - **directives** (SB019, SB020): every `#@ trigger` names declared
//!   components, and no component has a second `#@ policy`;
//! - **partition plan** (SB015): process assignments must cover every
//!   component exactly once;
//! - **transport** (SB016): cross-process streams need a usable `tcp://` or `shm://`
//!   endpoint, and several transport declarations must agree;
//! - **wire cost** (SB017): estimated bytes-on-the-wire per payload byte
//!   of each cross-process stream, from the propagated specs.
//!
//! The directive pass reports first, the others after the model passes.

use std::collections::{BTreeMap, BTreeSet};

use crate::launch::ScriptDirectives;
use crate::plan::{PlannedComponent, WorkflowPlan};
use crate::supervisor::FaultPolicy;
use crate::triggers::TriggerAction;

use super::diagnostics::{AnalysisIssue, ScriptLint};
use super::lints::LintConfig;
use super::model::{EntryView, Model};
use super::spec::StreamSpec;
use super::{lint_entries, PolicyLines};

/// Wire amplification (in tenths) above which SB017 fires: 6.0× the
/// payload. The benchmark (`benchmark/`, `BENCHMARK.json`) meters each hop
/// of a well-shaped stream at its payload: `writer_hop_amplification` and
/// `reader_hop_amplification` are 1.000 on the 1×1 `lammps.replay.tcp`,
/// and the reader hop is 1.01 on `gromacs.mxn.tcp-lz`, whose three reader
/// ranks are each sent their box (2.5 while each was sent the step). One
/// group therefore costs ~2× by this pass's model, whatever its rank
/// count; 6× separates the fan-out a workflow plausibly wants from
/// a wiring problem (tiny payloads fanned out widely, where per-rank
/// metadata dominates).
pub const WIRE_AMPLIFICATION_THRESHOLD_TENTHS: u64 = 60;

/// Fixed per-step envelope bytes the wire estimate charges each rank for
/// framing, handshakes and step control, on top of the self-describing
/// metadata derived from the spec.
const STEP_ENVELOPE_BYTES: u64 = 64;

/// Lowers one launch script and lints the plan. Whatever stops the
/// lowering — a syntax error, a component that rejects its arguments — is
/// reported as SB000 on its own line, and nothing else is: a half-built
/// workflow would cascade into spurious wiring issues. `name` prefixes the
/// rendering (`script.sh:12:`); `config` filters and re-levels lints.
pub fn lint_source(name: &str, text: &str, config: &LintConfig) -> ScriptLint {
    match WorkflowPlan::from_script(text) {
        Ok(plan) => lint_plan(name, &plan, config),
        Err(errors) => {
            let mut lint = ScriptLint::new(name);
            for e in errors {
                lint.push(
                    config,
                    AnalysisIssue::ScriptError { detail: e.detail },
                    Some(e.line),
                );
            }
            lint
        }
    }
}

/// Lints one plan end to end: its directives, the model-level passes, and
/// the plan-level passes, all attributed to the plan's script lines.
pub fn lint_plan(name: &str, plan: &WorkflowPlan, config: &LintConfig) -> ScriptLint {
    let mut lint = ScriptLint::new(name);
    directive_pass(plan, |issue, line| lint.push(config, issue, line));

    let built = &plan.components;
    let directives = &plan.directives;
    let policies: BTreeMap<String, FaultPolicy> = directives
        .policies
        .iter()
        .map(|p| (p.label.clone(), p.policy.clone()))
        .collect();
    let policy_lines: PolicyLines = directives
        .policies
        .iter()
        .map(|p| (p.label.clone(), p.line))
        .collect();

    let views: Vec<EntryView<'_>> = built
        .iter()
        .map(|c| EntryView {
            label: &c.label,
            nranks: c.entry.nranks,
            component: c.component.as_ref(),
            line: Some(c.entry.line),
        })
        .collect();
    lint.diagnostics
        .extend(lint_entries(&views, &policies, &policy_lines, config));

    let model = Model::build(&views);
    let assignment = plan_pass(built, directives, |issue, line| {
        lint.push(config, issue, line)
    });
    transport_pass(&model, built, directives, &assignment, |issue, line| {
        lint.push(config, issue, line)
    });
    wire_cost_pass(&model, built, &assignment, |issue, line| {
        lint.push(config, issue, line)
    });
    lint
}

/// SB019: a trigger watching or acting on an undeclared component. SB020: a
/// second policy for one component, on the later directive's line.
fn directive_pass(plan: &WorkflowPlan, mut push: impl FnMut(AnalysisIssue, Option<usize>)) {
    for trigger in &plan.triggers {
        let target = match &trigger.action {
            TriggerAction::SetOutputStride { target, .. }
            | TriggerAction::RaiseFaultPolicy { target, .. } => Some(target),
            TriggerAction::SnapshotStream { .. } => None,
        };
        for reference in std::iter::once(&trigger.component).chain(target) {
            if !plan.declares(reference) {
                push(
                    AnalysisIssue::UndeclaredTriggerRef {
                        reference: reference.clone(),
                    },
                    Some(trigger.line),
                );
            }
        }
    }
    let policies = &plan.directives.policies;
    for (i, policy) in policies.iter().enumerate() {
        if let Some(first) = policies[..i].iter().find(|p| p.label == policy.label) {
            push(
                AnalysisIssue::DuplicatePolicy {
                    component: policy.label.clone(),
                    first_line: first.line,
                },
                Some(policy.line),
            );
        }
    }
}

/// SB015: every component in exactly one process. Returns the label →
/// process assignment for uniquely assigned components (empty when the
/// plan declares no processes).
fn plan_pass(
    built: &[PlannedComponent],
    directives: &ScriptDirectives,
    mut push: impl FnMut(AnalysisIssue, Option<usize>),
) -> BTreeMap<String, String> {
    let mut assignment = BTreeMap::new();
    if directives.processes.is_empty() {
        return assignment;
    }
    let labels: BTreeSet<&str> = built.iter().map(|b| b.label.as_str()).collect();
    let known: Vec<String> = built.iter().map(|b| b.label.clone()).collect();
    let mut seen = BTreeSet::new();
    for proc in &directives.processes {
        if !seen.insert(proc.name.as_str()) {
            push(
                AnalysisIssue::DuplicateProcessName {
                    process: proc.name.clone(),
                },
                Some(proc.line),
            );
        }
        for member in &proc.members {
            if !labels.contains(member.as_str()) {
                push(
                    AnalysisIssue::UnknownProcessMember {
                        process: proc.name.clone(),
                        member: member.clone(),
                        known: known.clone(),
                    },
                    Some(proc.line),
                );
            }
        }
    }
    let process_names: Vec<String> = directives
        .processes
        .iter()
        .map(|p| p.name.clone())
        .collect();
    for b in built {
        let assigned: Vec<String> = directives
            .processes
            .iter()
            .filter(|p| p.members.contains(&b.label))
            .map(|p| p.name.clone())
            .collect();
        match assigned.len() {
            0 => push(
                AnalysisIssue::UnassignedComponent {
                    component: b.label.clone(),
                    processes: process_names.clone(),
                },
                Some(b.entry.line),
            ),
            1 => {
                assignment.insert(b.label.clone(), assigned.into_iter().next().unwrap());
            }
            _ => push(
                AnalysisIssue::MultiplyAssigned {
                    component: b.label.clone(),
                    processes: assigned,
                },
                Some(b.entry.line),
            ),
        }
    }
    assignment
}

/// SB016: endpoint collisions, unconnectable endpoints, and cross-process
/// streams with no transport at all.
fn transport_pass(
    model: &Model<'_>,
    built: &[PlannedComponent],
    directives: &ScriptDirectives,
    assignment: &BTreeMap<String, String>,
    mut push: impl FnMut(AnalysisIssue, Option<usize>),
) {
    let mut distinct: Vec<&str> = Vec::new();
    let mut collision_line = None;
    for (url, line) in &directives.transports {
        if !distinct.contains(&url.as_str()) {
            if !distinct.is_empty() && collision_line.is_none() {
                collision_line = Some(*line);
            }
            distinct.push(url);
        }
        // `validate_transport_url` accepts any u16 port at parse time;
        // port 0 survives parsing but is never connectable. Only tcp://
        // URLs carry a port — an shm:// rendezvous directory may legally
        // end in ":0".
        if url.starts_with("tcp://") && url.ends_with(":0") {
            push(
                AnalysisIssue::UnreachableEndpoint {
                    url: url.clone(),
                    reason: "port 0 is not a connectable endpoint".to_string(),
                },
                Some(*line),
            );
        }
    }
    if distinct.len() > 1 {
        push(
            AnalysisIssue::EndpointCollision {
                urls: distinct.iter().map(|u| u.to_string()).collect(),
            },
            collision_line,
        );
    }

    if directives.transports.is_empty() {
        for (stream, writer_process, _reader, reader_process) in
            cross_process_streams(model, built, assignment)
        {
            let writer_line = built
                .iter()
                .find(|b| Some(&b.label) == writer_of(model, built, &stream))
                .map(|b| b.entry.line);
            push(
                AnalysisIssue::MissingTransport {
                    stream,
                    writer_process,
                    reader_process,
                },
                writer_line,
            );
        }
    }
}

/// The label of `stream`'s single writer, when it has exactly one.
fn writer_of<'b>(
    model: &Model<'_>,
    built: &'b [PlannedComponent],
    stream: &str,
) -> Option<&'b String> {
    match model.writers.get(stream).map(Vec::as_slice) {
        Some([w]) => Some(&built[*w].label),
        _ => None,
    }
}

/// Streams whose single writer and some reader land in different
/// processes: `(stream, writer process, reader label, reader process)`,
/// one tuple per stream (the first cross-process reader found).
fn cross_process_streams(
    model: &Model<'_>,
    built: &[PlannedComponent],
    assignment: &BTreeMap<String, String>,
) -> Vec<(String, String, String, String)> {
    let mut out = Vec::new();
    for (stream, consumers) in &model.readers {
        let Some(writer_label) = writer_of(model, built, stream) else {
            continue;
        };
        let Some(writer_process) = assignment.get(writer_label) else {
            continue;
        };
        for &r in consumers {
            let reader_label = &built[r].label;
            let Some(reader_process) = assignment.get(reader_label) else {
                continue;
            };
            if reader_process != writer_process {
                out.push((
                    stream.clone(),
                    writer_process.clone(),
                    reader_label.clone(),
                    reader_process.clone(),
                ));
                break;
            }
        }
    }
    out
}

/// SB017: static wire-cost estimate for each cross-process stream.
///
/// One step of a stream with payload `P` bytes crosses the broker once up
/// (writer → broker) and once per subscribed reader group down (each
/// rank of a group is sent the box it reads, and the boxes of a group tile
/// the step), so the payload alone costs `(1 + groups) × P`. On top of that every participating rank exchanges
/// the self-describing metadata and step envelope. The amplification is
/// wire bytes per payload byte; tiny payloads under wide fan-out are
/// exactly the shapes that drown in per-rank overhead.
fn wire_cost_pass(
    model: &Model<'_>,
    built: &[PlannedComponent],
    assignment: &BTreeMap<String, String>,
    mut push: impl FnMut(AnalysisIssue, Option<usize>),
) {
    for (stream, _writer_process, _reader, _reader_process) in
        cross_process_streams(model, built, assignment)
    {
        let Some(StreamSpec::Known(arrays)) = model.specs.get(&stream) else {
            continue;
        };
        let payload: Option<u64> = arrays.values().map(|a| a.payload_bytes()).sum();
        let Some(payload) = payload else { continue };
        if payload == 0 {
            continue;
        }
        // Self-describing metadata one rank ships per step: array and
        // dimension names, 8 bytes per extent, and every quantity label.
        let meta: u64 = STEP_ENVELOPE_BYTES
            + arrays
                .iter()
                .map(|(name, spec)| {
                    name.len() as u64
                        + spec
                            .dims
                            .iter()
                            .map(|d| 8 + d.name.len() as u64)
                            .sum::<u64>()
                        + spec
                            .labels
                            .values()
                            .flatten()
                            .map(|l| l.len() as u64)
                            .sum::<u64>()
                })
                .sum::<u64>();
        let groups = model.reader_groups.get(&stream).copied().unwrap_or(1) as u64;
        let writer_idx = model.writers[&stream][0];
        let writer_ranks = built[writer_idx].entry.nranks as u64;
        let reader_ranks: u64 = model.readers[&stream]
            .iter()
            .map(|&r| built[r].entry.nranks as u64)
            .sum();
        let wire = (1 + groups) * payload + (writer_ranks + reader_ranks) * meta;
        let amplification_tenths = wire * 10 / payload;
        if amplification_tenths > WIRE_AMPLIFICATION_THRESHOLD_TENTHS {
            let line = built.get(writer_idx).map(|b| b.entry.line);
            push(
                AnalysisIssue::WireAmplification {
                    stream,
                    amplification_tenths,
                    threshold_tenths: WIRE_AMPLIFICATION_THRESHOLD_TENTHS,
                    payload_bytes: payload,
                    wire_bytes: wire,
                },
                line,
            );
        }
    }
}
