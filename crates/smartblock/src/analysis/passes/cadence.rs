//! Cadence pass: SB009 cadence-mismatch.
//!
//! Step counts are propagated through [`StepContract`]s in
//! [`Model::build`]: sources declare `Produces(n)`, pass-through
//! components inherit the minimum of their inputs, and decimating
//! components (Temporal-Mean with a stride) divide it. A component that
//! *joins* two streams whose statically known step counts differ is
//! doomed: the runtime joins step-by-step, so the slower stream ends the
//! join early and the remaining steps of the faster one are silently
//! dropped — or, under rendezvous writers, the faster side wedges.
//! Unknown counts (opaque closures, contested streams) stay silent; the
//! lint only fires on a provable mismatch.
//!
//! [`StepContract`]: crate::analysis::StepContract

use std::collections::BTreeSet;

use crate::analysis::diagnostics::AnalysisIssue;
use crate::analysis::model::Model;
use crate::component::read_streams;

pub(crate) fn run(model: &Model<'_>, issues: &mut Vec<AnalysisIssue>) {
    for e in model.entries {
        let distinct: BTreeSet<String> = read_streams(e.component).into_iter().collect();
        if distinct.len() < 2 {
            continue;
        }
        let rates: Vec<(String, u64)> = distinct
            .into_iter()
            .filter_map(|s| model.steps.get(&s).map(|&n| (s, n)))
            .collect();
        if rates.len() < 2 {
            continue;
        }
        let first = rates[0].1;
        if rates.iter().any(|&(_, n)| n != first) {
            issues.push(AnalysisIssue::CadenceMismatch {
                component: e.label.to_string(),
                rates,
            });
        }
    }
}
