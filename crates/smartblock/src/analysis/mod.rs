//! Static workflow analysis: the SmartBlock lint engine.
//!
//! The paper's thesis is that standardized component interfaces make a
//! whole workflow checkable *before* it runs. This module is that check,
//! organized as a staged lint engine:
//!
//! - [`spec`] — the contract vocabulary: [`StreamSpec`]s, [`Signature`]s,
//!   transfer functions, and [`StepContract`]s;
//! - [`lints`] — the registry of stable `SBxxx` lint IDs with default
//!   levels and per-run [`LintConfig`] overrides;
//! - [`diagnostics`] — structured [`AnalysisIssue`]s and [`Diagnostic`]s
//!   with rustc-style text and `smartblock.lint.v1` JSON renderings;
//! - `model` — the shared graph/spec/step model built once per lint;
//! - `passes` — the model-level passes (wiring, cycle, contract,
//!   cadence, fault-policy soundness);
//! - [`script`] — plan-level linting ([`lint_plan`], [`lint_source`]) plus
//!   the passes that need a plan's directives and triggers: directives,
//!   starvation, partition plan, transport, and wire cost.
//!
//! [`Workflow::validate`](crate::Workflow::validate) returns the raw
//! [`AnalysisIssue`]s (the pre-existing API);
//! [`Workflow::lint`](crate::Workflow::lint) and [`lint_plan`] return
//! leveled [`Diagnostic`]s for `sb-lint` and `sb-run`'s pre-launch gate.

pub mod diagnostics;
pub mod lints;
pub(crate) mod model;
pub(crate) mod passes;
pub mod script;
pub mod spec;

pub use diagnostics::{
    check_report, render_report_json, AnalysisIssue, Diagnostic, ScriptLint, Severity,
};
pub use lints::{lint_by_id, lint_by_name, Level, Lint, LintConfig, LINTS};
pub use script::{lint_plan, lint_source, WIRE_AMPLIFICATION_THRESHOLD_TENTHS};
pub use spec::{
    unary_transfer, ArraySpec, DimSpec, Extent, PartitionRule, ReadSpec, Signature, SpecError,
    StepContract, StreamSpec, TransferFn,
};

pub(crate) use model::EntryView;

use std::collections::BTreeMap;

use crate::supervisor::FaultPolicy;

/// Policy label → directive line, for attributing SB014 (whose
/// target label matches no entry) to the directive that named it.
pub(crate) type PolicyLines = BTreeMap<String, usize>;

/// Runs the model-level passes in their fixed order and returns the raw
/// issues: wiring first (so the oldest, most actionable problems lead),
/// then cycle, contract, cadence, and fault-policy soundness.
pub(crate) fn analyze(
    entries: &[EntryView<'_>],
    policies: &BTreeMap<String, FaultPolicy>,
) -> Vec<AnalysisIssue> {
    let model = model::Model::build(entries);
    let mut issues = Vec::new();
    passes::wiring::run(&model, &mut issues);
    passes::cycle::run(&model, &mut issues);
    passes::contract::run(&model, &mut issues);
    passes::cadence::run(&model, &mut issues);
    passes::fault::run(&model, policies, &mut issues);
    issues
}

/// [`analyze`] plus leveling and source-line attribution: the shared body
/// of [`Workflow::lint`](crate::Workflow::lint) and [`lint_plan`].
/// Issues whose lint the config allows are dropped.
pub(crate) fn lint_entries(
    entries: &[EntryView<'_>],
    policies: &BTreeMap<String, FaultPolicy>,
    policy_lines: &PolicyLines,
    config: &LintConfig,
) -> Vec<Diagnostic> {
    let issues = analyze(entries, policies);
    issues
        .into_iter()
        .filter_map(|issue| {
            let level = config.level_for(issue.lint());
            if level == Level::Allow {
                return None;
            }
            let line = attribute_line(entries, policy_lines, &issue);
            Some(Diagnostic { issue, level, line })
        })
        .collect()
}

/// Best source line for an issue: the named component's launch line,
/// else the stream's writer line, else the stream's first reader line,
/// else (for unknown policy targets) the policy directive's line.
fn attribute_line(
    entries: &[EntryView<'_>],
    policy_lines: &PolicyLines,
    issue: &AnalysisIssue,
) -> Option<usize> {
    let line_of_label = |label: &str| {
        entries
            .iter()
            .find(|e| e.label == label)
            .and_then(|e| e.line)
    };
    if let Some(component) = issue.component() {
        if let Some(line) = line_of_label(component) {
            return Some(line);
        }
    }
    if let AnalysisIssue::UnknownPolicyTarget { label, .. } = issue {
        return policy_lines.get(label).copied();
    }
    // A cycle has no single home component; point at its first member.
    if let AnalysisIssue::Cycle { components } = issue {
        return components.first().and_then(|c| line_of_label(c));
    }
    let stream = issue.stream()?;
    let writes = |e: &&EntryView<'_>| e.component.output_streams().iter().any(|s| s == stream);
    let reads = |e: &&EntryView<'_>| {
        crate::component::read_streams(e.component)
            .iter()
            .any(|s| s == stream)
    };
    entries
        .iter()
        .find(writes)
        .or_else(|| entries.iter().find(reads))
        .and_then(|e| e.line)
}
