//! Wiring pass: SB001 no-writer, SB002 no-reader, SB003 multiple-writers.

use crate::analysis::diagnostics::AnalysisIssue;
use crate::analysis::model::Model;
use crate::runtime::WiringIssue;

pub(crate) fn run(model: &Model<'_>, issues: &mut Vec<AnalysisIssue>) {
    for (stream, consumers) in &model.readers {
        if !model.writers.contains_key(stream) {
            issues.push(AnalysisIssue::Wiring(WiringIssue::NoWriter {
                stream: stream.clone(),
                readers: model.labels_of(consumers),
            }));
        }
    }
    for (stream, producers) in &model.writers {
        if !model.readers.contains_key(stream) {
            issues.push(AnalysisIssue::Wiring(WiringIssue::NoReader {
                stream: stream.clone(),
                writers: model.labels_of(producers),
            }));
        }
        if producers.len() > 1 {
            issues.push(AnalysisIssue::Wiring(WiringIssue::MultipleWriters {
                stream: stream.clone(),
                writers: model.labels_of(producers),
            }));
        }
    }
}
