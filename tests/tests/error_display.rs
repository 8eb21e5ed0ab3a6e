//! Rendering audit for the whole error taxonomy: every `Display` impl must
//! produce clean single-sentence lines. Wrapped format strings are an easy
//! way to leak a run of literal spaces into a diagnostic (the line
//! continuation keeps the next line's indentation unless it is escaped);
//! this suite renders at least one instance of every variant and rejects
//! consecutive double spaces.

use std::time::Duration;

use sb_comm::CommError;
use sb_data::{DType, DataError};
use smartblock::analysis::SpecError;
use smartblock::prelude::*;

/// No line of the rendered message may contain a run of two spaces.
/// Leading indentation of structured multi-line diagnostics (bullet lists)
/// is allowed; runs *inside* a sentence are not.
fn assert_clean(msg: &str) {
    assert!(!msg.is_empty(), "error rendered as an empty string");
    for line in msg.lines() {
        assert!(
            !line.trim_start().contains("  "),
            "double space in error message: {msg:?}"
        );
    }
}

#[test]
fn data_error_messages_are_clean() {
    let errors = vec![
        DataError::ShapeMismatch {
            data_len: 3,
            shape_len: 4,
        },
        DataError::DTypeMismatch {
            expected: DType::F64,
            found: DType::F32,
        },
        DataError::RegionOutOfBounds {
            detail: "region [2..5) exceeds extent 4".into(),
        },
        DataError::NoSuchDimension { index: 7, ndims: 2 },
        DataError::NoSuchLabel {
            label: "P_perp".into(),
            dim: 1,
        },
        DataError::MissingHeader { dim: 0 },
        DataError::MalformedHeader {
            dim: 1,
            expected: 4,
            found: 2,
        },
        DataError::Contract {
            detail: "input \"v.fp:x\": expected a 2-d array, got 1-d".into(),
        },
        DataError::Container {
            detail: "truncated step record".into(),
        },
        DataError::Io {
            detail: "permission denied".into(),
        },
    ];
    for e in errors {
        assert_clean(&e.to_string());
    }
}

#[test]
fn stream_error_messages_are_clean() {
    let errors = vec![
        StreamError::Timeout {
            stream: "v.fp".into(),
            waiting_for: "a committed step".into(),
            timeout: Duration::from_millis(150),
            detail: "writers=1 readers=1 closed=false".into(),
        },
        StreamError::PeerGone {
            stream: "v.fp".into(),
            reason: "workflow aborted".into(),
        },
    ];
    for e in errors {
        assert_clean(&e.to_string());
    }
}

#[test]
fn comm_error_messages_are_clean() {
    let errors = vec![
        CommError::RankPanicked {
            rank: 2,
            message: "index out of bounds".into(),
        },
        CommError::ZeroRanks,
        CommError::PeerGone { from: 1 },
        CommError::InvalidWorkflow {
            issues: vec!["stream \"a.fp\" has no writer".into(), "cycle".into()],
        },
    ];
    for e in errors {
        assert_clean(&e.to_string());
    }
}

#[test]
fn component_and_workflow_error_messages_are_clean() {
    let stream = ComponentError::Stream {
        label: "magnitude".into(),
        step: 3,
        source: StreamError::PeerGone {
            stream: "r.fp".into(),
            reason: "poisoned".into(),
        },
    };
    let data = ComponentError::Data {
        label: "select".into(),
        step: 1,
        source: DataError::NoSuchLabel {
            label: "Q".into(),
            dim: 2,
        },
    };
    let injected = ComponentError::Injected {
        label: "histogram".into(),
        rank: 0,
        step: 2,
    };
    let panicked = ComponentError::Panicked {
        label: "combine".into(),
        rank: 1,
        message: "assertion failed".into(),
    };
    let launch = ComponentError::Launch {
        label: "stats".into(),
        source: CommError::ZeroRanks,
    };
    let components = vec![stream, data, injected, panicked.clone(), launch];
    for e in &components {
        assert_clean(&e.to_string());
        assert_clean(&StepError::Data(DataError::MissingHeader { dim: 0 }).to_string());
    }
    let workflows = vec![
        WorkflowError::Invalid {
            issues: vec!["issue one".into(), "issue two".into()],
        },
        WorkflowError::ComponentFailed {
            label: "combine".into(),
            attempts: 3,
            error: panicked,
        },
        WorkflowError::Launch(CommError::ZeroRanks),
    ];
    for e in workflows {
        assert_clean(&e.to_string());
    }
}

#[test]
fn analysis_issue_messages_are_clean() {
    let wiring = vec![
        WiringIssue::NoWriter {
            stream: "a.fp".into(),
            readers: vec!["magnitude".into()],
        },
        WiringIssue::NoReader {
            stream: "m.fp".into(),
            writers: vec!["magnitude".into()],
        },
        WiringIssue::MultipleWriters {
            stream: "m.fp".into(),
            writers: vec!["a".into(), "b".into()],
        },
    ];
    for w in wiring {
        assert_clean(&AnalysisIssue::Wiring(w).to_string());
    }
    let specs = vec![
        SpecError::UnknownArray {
            array: "q".into(),
            available: vec!["plasma".into()],
        },
        SpecError::UnknownLabel {
            dim: 2,
            label: "Q_perp".into(),
            available: vec!["P_perp".into()],
        },
        SpecError::AxisOutOfBounds { axis: 7, ndims: 3 },
        SpecError::RankMismatch {
            expected: 1,
            got: 2,
        },
        SpecError::ShapeMismatch {
            left: "(n=36, d=3)".into(),
            right: "(n=64, d=3)".into(),
        },
        SpecError::InvalidAxes {
            detail: "permutation [1, 0] has length 2, array has rank 3".into(),
        },
        SpecError::DegenerateBins {
            bins: 4096,
            elements: 4,
        },
    ];
    for s in &specs {
        assert_clean(&s.to_string());
        assert_clean(
            &AnalysisIssue::Contract {
                component: "select".into(),
                stream: "gtcp.fp".into(),
                error: s.clone(),
            }
            .to_string(),
        );
    }
    let others = vec![
        AnalysisIssue::Cycle {
            components: vec!["magnitude".into(), "magnitude-2".into()],
        },
        AnalysisIssue::OverDecomposed {
            component: "select".into(),
            stream: "gtcp.fp".into(),
            array: "plasma".into(),
            dim: "toroidal".into(),
            extent: 4,
            nranks: 8,
        },
    ];
    for i in others {
        assert_clean(&i.to_string());
    }
}
