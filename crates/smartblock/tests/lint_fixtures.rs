//! Fixture-driven coverage of the lint registry: every live lint ID has one
//! launch script that provably fires it and one near-identical script that
//! provably does not, plus golden snapshots of both renderings and
//! clean-bill-of-health checks for the paper workflows and the checked-in
//! example scripts.

use sb_stream::StreamHub;
use smartblock::analysis::{
    lint_source, render_report_json, Level, Lint, LintConfig, ScriptLint, LINTS,
};
use smartblock::plan::WorkflowPlan;
use smartblock::workflows::{gromacs_workflow, gtcp_workflow, lammps_workflow, PresetScale};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/lint/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Lints the launch-script fixture `<stem>.sb`.
fn lint_fixture(stem: &str) -> ScriptLint {
    let file = format!("{stem}.sb");
    lint_source(&file, &fixture(&file), &LintConfig::new())
}

/// The lints that can fire: a retired lint keeps its ID at allow level and
/// has no fixtures.
fn live_lints() -> impl Iterator<Item = &'static Lint> {
    LINTS.iter().filter(|l| l.default_level != Level::Allow)
}

/// Positive fixtures beyond the one `<ID>-pos` per lint: `(lint, stem)`.
const EXTRA_POSITIVES: [(&str, &str); 1] = [("SB000", "SB000-ctor-pos")];

/// Every lint has a positive fixture that fires it and a negative fixture
/// that stays silent on it — the registry's behavioral contract.
#[test]
fn every_lint_has_a_firing_and_a_silent_fixture() {
    let mut failures = Vec::new();
    let positives = live_lints()
        .map(|lint| (lint.id, format!("{}-pos", lint.id)))
        .chain(EXTRA_POSITIVES.map(|(id, stem)| (id, stem.to_string())));
    for (id, stem) in positives {
        let report = lint_fixture(&stem);
        if !report.diagnostics.iter().any(|d| d.id() == id) {
            failures.push(format!("{} did not fire {id}", report.name));
        }
    }
    for lint in live_lints() {
        let report = lint_fixture(&format!("{}-neg", lint.id));
        if report.diagnostics.iter().any(|d| d.id() == lint.id) {
            failures.push(format!("{} fired {}", report.name, lint.id));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Positive fixtures carry a line attribution and render at the lint's
/// default level.
#[test]
fn fixture_diagnostics_carry_lines_and_default_levels() {
    for lint in live_lints() {
        let stem = format!("{}-pos", lint.id);
        let report = lint_fixture(&stem);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.id() == lint.id)
            .unwrap_or_else(|| panic!("{stem} must fire {}", lint.id));
        assert_eq!(d.level, lint.default_level, "{stem}");
        assert!(
            d.line.is_some(),
            "{stem}: {} has no line attribution",
            lint.id
        );
    }
}

const GOLDEN: &str = "aprun -n 1 magnitude a.fp v b.fp w &\nwait\n";

/// The rustc-style text rendering, byte for byte.
#[test]
fn golden_text_rendering() {
    let report = lint_source("golden.sb", GOLDEN, &LintConfig::new());
    assert_eq!(
        report.render_text(),
        "golden.sb:1: error[SB001]: stream \"a.fp\" is read by [\"magnitude\"] but written by nothing\n\
         golden.sb:1: warning[SB002]: stream \"b.fp\" is written by [\"magnitude\"] but read by nothing\n"
    );
}

/// The smartblock.lint.v1 JSON rendering, byte for byte.
#[test]
fn golden_json_rendering() {
    let report = lint_source("golden.sb", GOLDEN, &LintConfig::new());
    assert_eq!(
        render_report_json(&[report]),
        "{\"schema\":\"smartblock.lint.v1\",\"scripts\":[{\"script\":\"golden.sb\",\"diagnostics\":[\
         {\"id\":\"SB001\",\"name\":\"no-writer\",\"level\":\"error\",\"line\":1,\
         \"message\":\"stream \\\"a.fp\\\" is read by [\\\"magnitude\\\"] but written by nothing\",\
         \"fields\":{\"stream\":\"a.fp\"}},\
         {\"id\":\"SB002\",\"name\":\"no-reader\",\"level\":\"warning\",\"line\":1,\
         \"message\":\"stream \\\"b.fp\\\" is written by [\\\"magnitude\\\"] but read by nothing\",\
         \"fields\":{\"stream\":\"b.fp\"}}],\
         \"errors\":1,\"warnings\":1}],\"errors\":1,\"warnings\":1}\n"
    );
}

/// `--allow`/`--deny` overrides reshape the report.
#[test]
fn config_overrides_filter_and_promote() {
    let mut config = LintConfig::new();
    config.set("SB002", Level::Allow).unwrap();
    let report = lint_source("golden.sb", GOLDEN, &config);
    assert_eq!(report.warnings(), 0, "allowed lint must be filtered out");
    assert_eq!(report.errors(), 1);

    let mut config = LintConfig::new();
    config.set("no-reader", Level::Deny).unwrap();
    let report = lint_source("golden.sb", GOLDEN, &config);
    assert_eq!(report.errors(), 2, "denied warning must count as an error");
}

/// The three paper workflows (Figs. 1-3, 6, 7) lint clean.
#[test]
fn paper_workflows_lint_clean() {
    let scale = PresetScale::default();
    for (label, (wf, _results)) in [
        ("lammps", lammps_workflow(&scale)),
        ("gtcp", gtcp_workflow(&scale)),
        ("gromacs", gromacs_workflow(&scale)),
    ] {
        let diagnostics = wf.lint(&LintConfig::new());
        assert!(diagnostics.is_empty(), "{label}: {diagnostics:?}");
    }
}

/// Every checked-in example launch script lowers to a plan, assembles
/// into a workflow, and lints clean — warnings included, nothing allowed
/// (CI runs them under `--deny-warnings`).
#[test]
fn example_scripts_lint_clean() {
    let dir = format!("{}/../../examples/scripts", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir}: {e}")) {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("sb") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let report = lint_source(&path.display().to_string(), &text, &LintConfig::new());
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
        // Single-process scripts must also assemble (the multi-process one
        // does too: process directives do not affect assembly).
        WorkflowPlan::from_script(&text)
            .unwrap_or_else(|e| panic!("{}: {e:?}", path.display()))
            .workflow(StreamHub::new(), &[])
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    assert!(
        seen >= 4,
        "expected the checked-in example scripts, found {seen}"
    );
}
