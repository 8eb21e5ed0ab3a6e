//! Structured diagnostics: the issue taxonomy, severity mapping, and the
//! rustc-style text and machine-readable JSON renderings.
//!
//! Every finding is an [`AnalysisIssue`] (the *what*, with typed fields)
//! wrapped in a [`Diagnostic`] (the *how to report it*: the effective
//! [`Level`] under the run's [`LintConfig`] and the
//! launch-script line it points at). A diagnostic renders two ways:
//!
//! * text — `script.sb:12: error[SB001]: stream ...` — for humans;
//! * JSON — one object per diagnostic with `id`, `name`, `level`, `line`,
//!   `message` and a `fields` map — for CI, conforming to
//!   `schemas/smartblock.lint.v1.json`.
//!
//! The workspace is dependency-free, so the JSON is emitted (and, for
//! `sb-lint --check`, structurally validated) by hand, mirroring how
//! `sb-trace` treats `smartblock.trace.v1.json`.

use std::fmt;

use super::lints::{lint_by_id, Level, Lint, LintConfig};
use super::spec::SpecError;
use crate::runtime::WiringIssue;

/// How bad an [`AnalysisIssue`] is, derived from its lint's *default*
/// level (the pre-lint-engine severity vocabulary, kept for
/// [`crate::Workflow::validate`] compatibility).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but runnable (an unread stream, interleaved step
    /// accounting, mostly-empty histogram bins).
    Warning,
    /// The workflow provably deadlocks or a component provably panics.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A problem found by static analysis ([`crate::Workflow::validate`],
/// [`crate::Workflow::lint`], or [`super::lint_plan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisIssue {
    /// The script does not parse, or a component constructor rejected its
    /// arguments outright (zero bins, empty fork). Script-level lint only.
    ScriptError {
        /// What went wrong.
        detail: String,
    },
    /// A stream-level wiring problem (dangling reader/writer, contested
    /// stream).
    Wiring(WiringIssue),
    /// Components whose subscriptions form a cycle: under blocking
    /// connects every member waits for another's first step, forever.
    Cycle {
        /// Labels of the components on the cycle, in launch order.
        components: Vec<String>,
    },
    /// A component's declared contract provably fails on its input.
    Contract {
        /// The violating component's label.
        component: String,
        /// Its input stream(s).
        stream: String,
        /// What the transfer function rejected.
        error: SpecError,
    },
    /// More ranks than the partitioned dimension has slices: the surplus
    /// ranks receive empty partitions every step.
    OverDecomposed {
        /// The over-provisioned component's label.
        component: String,
        /// The stream it reads.
        stream: String,
        /// The array it partitions.
        array: String,
        /// The partitioned dimension's name.
        dim: String,
        /// That dimension's fixed extent.
        extent: usize,
        /// The component's rank count.
        nranks: usize,
    },
    /// A multi-input component joins streams with provably different step
    /// counts: the component stops at the first end-of-stream, so the
    /// faster inputs' tail steps are silently dropped — or, under
    /// rendezvous writers, the faster side wedges.
    CadenceMismatch {
        /// The joining component's label.
        component: String,
        /// `(input stream, statically known step count)`, slowest first.
        rates: Vec<(String, u64)>,
    },
    /// A Restart policy on a component whose signature declares
    /// cross-step state: upstream cannot replay the steps committed before
    /// the crash, so the restarted component recomputes from a silently
    /// truncated window.
    RestartUnsound {
        /// The stateful component's label.
        component: String,
    },
    /// A Degrade policy on a terminal sink (no output streams): a failure
    /// ends the workflow "successfully" with the results truncated and no
    /// downstream component to notice.
    DegradeTerminal {
        /// The sink's label.
        component: String,
    },
    /// A Restart policy with `max_restarts == 0`: it behaves exactly like
    /// Abort, which is almost certainly not what was meant.
    ZeroRestartBudget {
        /// The component's label.
        component: String,
    },
    /// A fault policy names a component the script does not define.
    UnknownPolicyTarget {
        /// The dangling policy label.
        label: String,
        /// Components the script does define.
        known: Vec<String>,
    },
    /// A component is not assigned to any `#@ process` of the partition
    /// plan: no process would run it and every subscriber of its outputs
    /// blocks forever.
    UnassignedComponent {
        /// The orphaned component's label.
        component: String,
        /// The declared process names.
        processes: Vec<String>,
    },
    /// A component is assigned to more than one process: both would run
    /// it, double-writing its output streams.
    MultiplyAssigned {
        /// The contested component's label.
        component: String,
        /// The processes that claim it.
        processes: Vec<String>,
    },
    /// A `#@ process` directive names a component the script does not
    /// define.
    UnknownProcessMember {
        /// The process making the claim.
        process: String,
        /// The unknown member label.
        member: String,
        /// Components the script does define.
        known: Vec<String>,
    },
    /// Two `#@ process` directives use the same process name.
    DuplicateProcessName {
        /// The repeated name.
        process: String,
    },
    /// A stream crosses processes but the script declares no `#@
    /// transport` endpoint to carry it.
    MissingTransport {
        /// The cross-process stream.
        stream: String,
        /// The writing process.
        writer_process: String,
        /// A reading process on the other side.
        reader_process: String,
    },
    /// The declared transport endpoint can never be dialled (port 0).
    UnreachableEndpoint {
        /// The bad endpoint URL.
        url: String,
        /// Why it is unreachable.
        reason: String,
    },
    /// The script declares conflicting broker endpoints: every process
    /// must rendezvous on the same one.
    EndpointCollision {
        /// The distinct URLs declared.
        urls: Vec<String>,
    },
    /// A `#@ trigger` clause references a component label the script does
    /// not declare; the clause could never fire or act.
    UndeclaredTriggerRef {
        /// The undeclared component label.
        reference: String,
    },
    /// A second `#@ policy` directive for a component that already has
    /// one: the two contradict each other, and only one could apply.
    DuplicatePolicy {
        /// The component both directives name.
        component: String,
        /// 1-based line of the first directive.
        first_line: usize,
    },
    /// The estimated wire cost of a cross-process stream exceeds the
    /// threshold: fan-out and per-chunk metadata amplify every payload
    /// byte into several bytes on the wire.
    WireAmplification {
        /// The expensive stream.
        stream: String,
        /// Estimated amplification, in tenths (41 = 4.1x).
        amplification_tenths: u64,
        /// The warning threshold, in tenths.
        threshold_tenths: u64,
        /// Statically known payload bytes per step.
        payload_bytes: u64,
        /// Estimated bytes on the wire per step.
        wire_bytes: u64,
    },
}

impl AnalysisIssue {
    /// The registered lint this issue reports under.
    pub fn lint(&self) -> &'static Lint {
        let id = match self {
            AnalysisIssue::ScriptError { .. } => "SB000",
            AnalysisIssue::Wiring(WiringIssue::NoWriter { .. }) => "SB001",
            AnalysisIssue::Wiring(WiringIssue::NoReader { .. }) => "SB002",
            AnalysisIssue::Wiring(WiringIssue::MultipleWriters { .. }) => "SB003",
            AnalysisIssue::Cycle { .. } => "SB005",
            AnalysisIssue::Contract {
                error: SpecError::DegenerateBins { .. },
                ..
            } => "SB007",
            AnalysisIssue::Contract { .. } => "SB006",
            AnalysisIssue::OverDecomposed { .. } => "SB008",
            AnalysisIssue::CadenceMismatch { .. } => "SB009",
            AnalysisIssue::RestartUnsound { .. } => "SB011",
            AnalysisIssue::DegradeTerminal { .. } => "SB012",
            AnalysisIssue::ZeroRestartBudget { .. } => "SB013",
            AnalysisIssue::UnknownPolicyTarget { .. } => "SB014",
            AnalysisIssue::UnassignedComponent { .. }
            | AnalysisIssue::MultiplyAssigned { .. }
            | AnalysisIssue::UnknownProcessMember { .. }
            | AnalysisIssue::DuplicateProcessName { .. } => "SB015",
            AnalysisIssue::MissingTransport { .. }
            | AnalysisIssue::UnreachableEndpoint { .. }
            | AnalysisIssue::EndpointCollision { .. } => "SB016",
            AnalysisIssue::WireAmplification { .. } => "SB017",
            AnalysisIssue::UndeclaredTriggerRef { .. } => "SB019",
            AnalysisIssue::DuplicatePolicy { .. } => "SB020",
        };
        lint_by_id(id).expect("every issue maps to a registered lint")
    }

    /// Whether the issue is fatal under default levels
    /// ([`crate::Workflow::run_with`] refuses) or advisory.
    pub fn severity(&self) -> Severity {
        match self.lint().default_level {
            Level::Deny => Severity::Error,
            _ => Severity::Warning,
        }
    }

    /// The component label the issue is primarily about, if one is.
    pub fn component(&self) -> Option<&str> {
        match self {
            AnalysisIssue::Contract { component, .. }
            | AnalysisIssue::OverDecomposed { component, .. }
            | AnalysisIssue::CadenceMismatch { component, .. }
            | AnalysisIssue::RestartUnsound { component }
            | AnalysisIssue::DegradeTerminal { component }
            | AnalysisIssue::ZeroRestartBudget { component }
            | AnalysisIssue::UnassignedComponent { component, .. }
            | AnalysisIssue::MultiplyAssigned { component, .. }
            | AnalysisIssue::DuplicatePolicy { component, .. } => Some(component),
            AnalysisIssue::UnknownPolicyTarget { label, .. } => Some(label),
            _ => None,
        }
    }

    /// The stream the issue is primarily about, if one is.
    pub fn stream(&self) -> Option<&str> {
        match self {
            AnalysisIssue::Wiring(
                WiringIssue::NoWriter { stream, .. }
                | WiringIssue::NoReader { stream, .. }
                | WiringIssue::MultipleWriters { stream, .. },
            ) => Some(stream),
            AnalysisIssue::Contract { stream, .. }
            | AnalysisIssue::OverDecomposed { stream, .. }
            | AnalysisIssue::MissingTransport { stream, .. }
            | AnalysisIssue::WireAmplification { stream, .. } => Some(stream),
            _ => None,
        }
    }

    /// Machine-readable extra fields for the JSON rendering, beyond the
    /// common `id`/`name`/`level`/`line`/`message` keys.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        let mut fields = Vec::new();
        if let Some(c) = self.component() {
            fields.push(("component", c.to_string()));
        }
        if let Some(s) = self.stream() {
            fields.push(("stream", s.to_string()));
        }
        match self {
            AnalysisIssue::OverDecomposed { extent, nranks, .. } => {
                fields.push(("extent", extent.to_string()));
                fields.push(("nranks", nranks.to_string()));
            }
            AnalysisIssue::CadenceMismatch { rates, .. } => {
                for (stream, steps) in rates {
                    fields.push(("rate", format!("{stream}={steps}")));
                }
            }
            AnalysisIssue::MissingTransport {
                writer_process,
                reader_process,
                ..
            } => {
                fields.push(("writer-process", writer_process.clone()));
                fields.push(("reader-process", reader_process.clone()));
            }
            AnalysisIssue::UnreachableEndpoint { url, .. } => {
                fields.push(("url", url.clone()));
            }
            AnalysisIssue::EndpointCollision { urls } => {
                for url in urls {
                    fields.push(("url", url.clone()));
                }
            }
            AnalysisIssue::WireAmplification {
                amplification_tenths,
                threshold_tenths,
                payload_bytes,
                wire_bytes,
                ..
            } => {
                fields.push(("amplification", render_tenths(*amplification_tenths)));
                fields.push(("threshold", render_tenths(*threshold_tenths)));
                fields.push(("payload-bytes", payload_bytes.to_string()));
                fields.push(("wire-bytes", wire_bytes.to_string()));
            }
            AnalysisIssue::UnknownProcessMember {
                process, member, ..
            } => {
                fields.push(("process", process.clone()));
                fields.push(("member", member.clone()));
            }
            AnalysisIssue::DuplicateProcessName { process } => {
                fields.push(("process", process.clone()));
            }
            AnalysisIssue::UndeclaredTriggerRef { reference } => {
                fields.push(("reference", reference.clone()));
            }
            AnalysisIssue::DuplicatePolicy { first_line, .. } => {
                fields.push(("first_line", first_line.to_string()));
            }
            _ => {}
        }
        fields
    }
}

/// `41` → `"4.1"`.
fn render_tenths(tenths: u64) -> String {
    format!("{}.{}", tenths / 10, tenths % 10)
}

impl fmt::Display for AnalysisIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisIssue::ScriptError { detail } => write!(f, "{detail}"),
            AnalysisIssue::Wiring(w) => w.fmt(f),
            AnalysisIssue::Cycle { components } => write!(
                f,
                "components {components:?} subscribe to each other in a cycle; every member \
                 blocks on another's first step, so the workflow deadlocks"
            ),
            AnalysisIssue::Contract {
                component,
                stream,
                error,
            } => write!(f, "component {component:?} (input {stream:?}): {error}"),
            AnalysisIssue::OverDecomposed {
                component,
                stream,
                array,
                dim,
                extent,
                nranks,
            } => write!(
                f,
                "component {component:?} runs {nranks} ranks but partitions {stream}:{array} \
                 along dimension {dim:?} of extent {extent}; at most {extent} ranks can \
                 receive data"
            ),
            AnalysisIssue::CadenceMismatch { component, rates } => {
                write!(
                    f,
                    "component {component:?} joins streams of different step counts:"
                )?;
                for (stream, steps) in rates {
                    write!(f, " {stream}={steps}")?;
                }
                write!(
                    f,
                    "; the join stops at the first end-of-stream and the faster inputs' \
                     remaining steps are dropped"
                )
            }
            AnalysisIssue::RestartUnsound { component } => write!(
                f,
                "component {component:?} has a Restart policy but carries state across steps; \
                 its upstream cannot replay committed steps, so a restart silently recomputes \
                 from a truncated window — use Abort or Degrade"
            ),
            AnalysisIssue::DegradeTerminal { component } => write!(
                f,
                "component {component:?} is a terminal sink with a Degrade policy; on failure \
                 the workflow ends \"successfully\" with the results silently truncated"
            ),
            AnalysisIssue::ZeroRestartBudget { component } => write!(
                f,
                "component {component:?} has a Restart policy with max_restarts=0, which \
                 behaves exactly like Abort"
            ),
            AnalysisIssue::UnknownPolicyTarget { label, known } => write!(
                f,
                "fault policy targets component {label:?} but the script defines {known:?}"
            ),
            AnalysisIssue::UnassignedComponent {
                component,
                processes,
            } => write!(
                f,
                "component {component:?} is not assigned to any process (declared: \
                 {processes:?}); nothing would run it and its subscribers block forever"
            ),
            AnalysisIssue::MultiplyAssigned {
                component,
                processes,
            } => write!(
                f,
                "component {component:?} is assigned to processes {processes:?}; each would \
                 run it and double-write its output streams"
            ),
            AnalysisIssue::UnknownProcessMember {
                process,
                member,
                known,
            } => write!(
                f,
                "process {process:?} claims component {member:?} but the script defines {known:?}"
            ),
            AnalysisIssue::DuplicateProcessName { process } => {
                write!(f, "process name {process:?} is declared twice")
            }
            AnalysisIssue::MissingTransport {
                stream,
                writer_process,
                reader_process,
            } => write!(
                f,
                "stream {stream:?} crosses from process {writer_process:?} to process \
                 {reader_process:?} but the script declares no `#@ transport` endpoint \
                 (tcp://host:port or shm://DIR) to carry it"
            ),
            AnalysisIssue::UnreachableEndpoint { url, reason } => {
                write!(
                    f,
                    "transport endpoint {url:?} can never be dialled: {reason}"
                )
            }
            AnalysisIssue::EndpointCollision { urls } => write!(
                f,
                "the script declares conflicting transport endpoints {urls:?}; every process \
                 must rendezvous on the same broker"
            ),
            AnalysisIssue::UndeclaredTriggerRef { reference } => write!(
                f,
                "trigger references component {reference:?} but the script declares no such \
                 component; the clause could never fire or act"
            ),
            AnalysisIssue::DuplicatePolicy {
                component,
                first_line,
            } => write!(
                f,
                "a second #@ policy for component {component:?} contradicts the one at line \
                 {first_line}; a component has one fault policy"
            ),
            AnalysisIssue::WireAmplification {
                stream,
                amplification_tenths,
                threshold_tenths,
                payload_bytes,
                wire_bytes,
            } => write!(
                f,
                "stream {stream:?} is estimated to cost {}x its payload on the wire \
                 ({payload_bytes} payload bytes -> ~{wire_bytes} wire bytes per step, \
                 threshold {}x); reduce fan-out or move the consumers into the writer's process",
                render_tenths(*amplification_tenths),
                render_tenths(*threshold_tenths),
            ),
        }
    }
}

/// One reportable finding: the issue, its effective level under the run's
/// configuration, and the launch-script line it points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The underlying typed issue.
    pub issue: AnalysisIssue,
    /// Effective level after [`super::LintConfig`] overrides.
    pub level: Level,
    /// 1-based launch-script line the issue points at, when the workflow
    /// came from a script.
    pub line: Option<usize>,
}

impl Diagnostic {
    /// The registered lint this diagnostic reports under.
    pub fn lint(&self) -> &'static Lint {
        self.issue.lint()
    }

    /// The stable `SBxxx` ID.
    pub fn id(&self) -> &'static str {
        self.lint().id
    }

    /// The human-readable message (the issue's `Display`).
    pub fn message(&self) -> String {
        self.issue.to_string()
    }

    /// The rustc-style one-line text rendering:
    /// `script.sb:12: error[SB001]: stream ...`.
    pub fn render_text(&self, source: &str) -> String {
        let lint = self.lint();
        match self.line {
            Some(line) => format!(
                "{source}:{line}: {}[{}]: {}",
                self.level, lint.id, self.issue
            ),
            None => format!("{source}: {}[{}]: {}", self.level, lint.id, self.issue),
        }
    }

    /// The JSON object rendering (one object, no trailing newline),
    /// conforming to `schemas/smartblock.lint.v1.json`.
    pub fn render_json(&self) -> String {
        let lint = self.lint();
        let mut out = String::from("{");
        push_json_str(&mut out, "id", lint.id);
        out.push(',');
        push_json_str(&mut out, "name", lint.name);
        out.push(',');
        push_json_str(&mut out, "level", &self.level.to_string());
        out.push(',');
        match self.line {
            Some(line) => out.push_str(&format!("\"line\":{line}")),
            None => out.push_str("\"line\":null"),
        }
        out.push(',');
        push_json_str(&mut out, "message", &self.message());
        out.push_str(",\"fields\":{");
        // Repeated keys (multi-valued fields) are indexed: rate, rate-2, ...
        let mut seen: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for (i, (key, value)) in self.issue.fields().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let n = seen.entry(key).or_insert(0);
            *n += 1;
            let key = if *n == 1 {
                (*key).to_string()
            } else {
                format!("{key}-{n}")
            };
            push_json_str(&mut out, &key, value);
        }
        out.push_str("}}");
        out
    }
}

/// Appends `"key":"escaped value"` to `out`.
fn push_json_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The lint results for one script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptLint {
    /// The script's display name (path, or `<stdin>`).
    pub name: String,
    /// Diagnostics in pass order ([`Level::Allow`] already filtered out).
    pub diagnostics: Vec<Diagnostic>,
}

impl ScriptLint {
    /// An empty report for the source displayed as `name`.
    pub(crate) fn new(name: &str) -> ScriptLint {
        ScriptLint {
            name: name.to_string(),
            diagnostics: Vec::new(),
        }
    }

    /// Records `issue` at its level under `config`, unless allowed.
    pub(crate) fn push(&mut self, config: &LintConfig, issue: AnalysisIssue, line: Option<usize>) {
        let level = config.level_for(issue.lint());
        if level != Level::Allow {
            self.diagnostics.push(Diagnostic { issue, level, line });
        }
    }

    /// Diagnostics at [`Level::Deny`].
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Deny)
            .count()
    }

    /// Diagnostics at [`Level::Warn`].
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Warn)
            .count()
    }

    /// The text rendering, one line per diagnostic.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_text(&self.name));
            out.push('\n');
        }
        out
    }

    /// The JSON object for this script within a report.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        push_json_str(&mut out, "script", &self.name);
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.render_json());
        }
        out.push_str(&format!(
            "],\"errors\":{},\"warnings\":{}}}",
            self.errors(),
            self.warnings()
        ));
        out
    }
}

/// Renders the full `smartblock.lint.v1` report over several scripts.
pub fn render_report_json(scripts: &[ScriptLint]) -> String {
    let errors: usize = scripts.iter().map(ScriptLint::errors).sum();
    let warnings: usize = scripts.iter().map(ScriptLint::warnings).sum();
    let mut out = String::from("{\"schema\":\"smartblock.lint.v1\",\"scripts\":[");
    for (i, s) in scripts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.render_json());
    }
    out.push_str(&format!("],\"errors\":{errors},\"warnings\":{warnings}}}"));
    out.push('\n');
    out
}

/// String-level schema check of a `smartblock.lint.v1` report, mirroring
/// the checked-in JSON schema without needing a JSON parser (the workspace
/// is dependency-free). Used by `sb-lint --check` and CI.
pub fn check_report(text: &str) -> Result<(), String> {
    let text = text.trim();
    if !text.starts_with('{') || !text.ends_with('}') {
        return Err("report is not a JSON object".into());
    }
    for key in [
        "\"schema\":\"smartblock.lint.v1\"",
        "\"scripts\":[",
        "\"errors\":",
        "\"warnings\":",
    ] {
        if !text.contains(key) {
            return Err(format!("report is missing {key}"));
        }
    }
    // Balanced braces/brackets outside strings: a cheap well-formedness
    // proxy that catches truncated output.
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in text.chars() {
        if in_str {
            match (esc, c) {
                (true, _) => esc = false,
                (false, '\\') => esc = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced brackets".into());
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return Err("unbalanced brackets or unterminated string".into());
    }
    // Every diagnostic id must be a registered lint.
    let mut rest = text;
    while let Some(pos) = rest.find("\"id\":\"") {
        rest = &rest[pos + 6..];
        let end = rest.find('"').ok_or("unterminated id string")?;
        let id = &rest[..end];
        if lint_by_id(id).is_none() {
            return Err(format!("unknown lint id {id:?} in report"));
        }
        for key in [
            "\"name\":",
            "\"level\":",
            "\"line\":",
            "\"message\":",
            "\"fields\":",
        ] {
            if !rest.contains(key) {
                return Err(format!("diagnostic {id} is missing {key}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            issue: AnalysisIssue::Wiring(WiringIssue::NoWriter {
                stream: "ghost.fp".into(),
                readers: vec!["select".into()],
            }),
            level: Level::Deny,
            line: Some(3),
        }
    }

    #[test]
    fn severity_split_matches_the_documented_model() {
        let warning = AnalysisIssue::Wiring(WiringIssue::NoReader {
            stream: "s".into(),
            writers: vec![],
        });
        assert_eq!(warning.severity(), Severity::Warning);
        let error = AnalysisIssue::Cycle { components: vec![] };
        assert_eq!(error.severity(), Severity::Error);
        let degenerate = AnalysisIssue::Contract {
            component: "h".into(),
            stream: "s".into(),
            error: SpecError::DegenerateBins {
                bins: 100,
                elements: 5,
            },
        };
        assert_eq!(degenerate.severity(), Severity::Warning);
        assert_eq!(degenerate.lint().id, "SB007");
    }

    #[test]
    fn text_rendering_is_rustc_style() {
        let d = sample();
        assert_eq!(
            d.render_text("wf.sb"),
            "wf.sb:3: error[SB001]: stream \"ghost.fp\" is read by [\"select\"] but written \
             by nothing"
        );
        let mut unlined = d;
        unlined.line = None;
        assert!(unlined
            .render_text("wf.sb")
            .starts_with("wf.sb: error[SB001]:"));
    }

    #[test]
    fn json_rendering_escapes_and_validates() {
        let report = render_report_json(&[ScriptLint {
            name: "a \"quoted\"\npath.sb".into(),
            diagnostics: vec![sample()],
        }]);
        assert!(report.contains("\\\"quoted\\\"\\npath.sb"));
        assert!(report.contains("\"id\":\"SB001\""));
        assert!(report.contains("\"line\":3"));
        assert!(report.contains("\"errors\":1"));
        check_report(&report).unwrap();
    }

    #[test]
    fn check_report_rejects_malformed_documents() {
        assert!(check_report("not json").is_err());
        assert!(check_report("{\"schema\":\"smartblock.lint.v1\"}").is_err());
        let truncated = "{\"schema\":\"smartblock.lint.v1\",\"scripts\":[{\"errors\":0,";
        assert!(check_report(truncated).is_err());
        let bad_id = "{\"schema\":\"smartblock.lint.v1\",\"scripts\":[{\"diagnostics\":\
                      [{\"id\":\"SB999\",\"name\":\"x\",\"level\":\"error\",\"line\":null,\
                      \"message\":\"m\",\"fields\":{}}],\"errors\":1,\"warnings\":0}],\
                      \"errors\":1,\"warnings\":0}";
        assert!(check_report(bad_id).is_err());
    }

    #[test]
    fn multi_valued_fields_get_indexed_keys() {
        let d = Diagnostic {
            issue: AnalysisIssue::CadenceMismatch {
                component: "combine".into(),
                rates: vec![("a.fp".into(), 2), ("b.fp".into(), 4)],
            },
            level: Level::Deny,
            line: None,
        };
        let json = d.render_json();
        assert!(json.contains("\"rate\":\"a.fp=2\""), "{json}");
        assert!(json.contains("\"rate-2\":\"b.fp=4\""), "{json}");
    }
}
