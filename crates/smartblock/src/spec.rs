//! The declarative workflow spec: `.sbw` files.
//!
//! A `.sbw` file describes a whole workflow in one artifact — components,
//! stream wiring, scale, fault policies, transport and wire options, trace
//! config, and reactive trigger clauses — in a small TOML subset parsed by
//! an in-tree parser (no external crates). The same spec drives `sb-lint`,
//! `sb-run`, and the library entry point
//! [`Workflow::from_spec`](crate::Workflow::from_spec):
//!
//! ```text
//! [workflow]
//! name = "gromacs-spread"
//!
//! [transport]
//! url = "tcp://127.0.0.1:7654"
//! protocol = "v2"          # v1 | v2 | shm (shm pins url to shm://DIR)
//! compression = "lz"       # none | lz
//! timeout_secs = 30
//!
//! [trace]
//! enabled = true
//! ring_capacity = 4096
//!
//! [[component]]
//! program = "gromacs"
//! ranks = 2
//! args = ["chains=8", "len=8", "steps=4", "interval=5"]
//!
//! [[component]]
//! program = "magnitude"
//! ranks = 2
//! args = ["gromacs.fp", "coords", "gmag.fp", "radii"]
//!
//! [policy.gromacs]
//! action = "restart"
//! max_restarts = 2
//! backoff_ms = 50
//!
//! [process.sim]
//! members = ["gromacs"]
//!
//! [[trigger]]
//! when = "histogram.max > 100"
//! then = "set_output_stride temporal-mean 4"
//! ```
//!
//! ## Compilation
//!
//! A spec compiles into the existing launch model by *synthesis*: every
//! construct is rendered as the equivalent launch-script line (`aprun …` or
//! `#@ …` directive), placed at the **same 1-based line number** the
//! construct occupies in the `.sbw` file, and the result goes through
//! [`crate::launch::parse_script_with_directives`]. Grammar-level errors
//! and every existing lint therefore report line-accurate positions in the
//! spec, with no second validation path to keep in sync.
//!
//! Spec-*level* issues (unknown keys, trigger references to undeclared
//! components, policy conflicts) are collected as [`SpecIssue`]s and
//! surface through the lint engine as SB018–SB020.
//!
//! ## Subset
//!
//! The parser accepts: `[table]` / `[table.sub]` headers, `[[array]]`
//! array-of-table headers, `key = value` pairs with string (`"…"`),
//! integer, float, boolean, and single-line list-of-string/int values,
//! `#` comments, and blank lines. No nested inline tables, no multi-line
//! values, no datetimes.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use sb_stream::{Compression, StreamHub, TraceConfig, WireProtocol};

use crate::distributed::{apply_policy_directives, partial_workflow, plan_script};
use crate::launch::{parse_script_with_directives, LaunchEntry, ScriptDirectives};
use crate::runtime::Workflow;
use crate::triggers::{Trigger, TriggerAction};

/// A syntax or structural error in a `.sbw` spec: the spec cannot compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError {
    /// 1-based spec line.
    pub line: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for SpecParseError {}

/// A spec-level issue found while compiling a parseable `.sbw` file.
/// Surfaced through the lint engine as SB018–SB020; deny-level kinds also
/// refuse [`Workflow::from_spec`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecIssue {
    /// SB018 (warn): a key or table the spec language does not define; the
    /// compiler ignores it.
    UnknownKey {
        /// The unknown key (or table header).
        key: String,
        /// The table it appeared in (`"(top level)"` for unknown tables).
        table: String,
        /// 1-based spec line.
        line: usize,
    },
    /// SB019 (deny): a trigger clause references a component label the
    /// spec does not declare; the clause could never fire or act.
    UndeclaredTriggerRef {
        /// The undeclared label.
        reference: String,
        /// 1-based spec line of the trigger.
        line: usize,
    },
    /// SB020 (deny): two spec constructs contradict each other (duplicate
    /// tables, a component assigned to two process groups, policy knobs
    /// that the declared action ignores).
    Conflict {
        /// Human-readable description of the contradiction.
        detail: String,
        /// 1-based spec line of the later construct.
        line: usize,
    },
}

impl SpecIssue {
    /// The 1-based spec line the issue points at.
    pub fn line(&self) -> usize {
        match self {
            SpecIssue::UnknownKey { line, .. }
            | SpecIssue::UndeclaredTriggerRef { line, .. }
            | SpecIssue::Conflict { line, .. } => *line,
        }
    }

    /// Whether the issue blocks [`Workflow::from_spec`] (deny-level).
    pub fn is_deny(&self) -> bool {
        !matches!(self, SpecIssue::UnknownKey { .. })
    }
}

impl fmt::Display for SpecIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecIssue::UnknownKey {
                key,
                table,
                line: _,
            } => {
                write!(f, "unknown key {key:?} in {table}")
            }
            SpecIssue::UndeclaredTriggerRef { reference, line: _ } => {
                write!(f, "trigger references undeclared component {reference:?}")
            }
            SpecIssue::Conflict { detail, line: _ } => f.write_str(detail),
        }
    }
}

/// Why loading a spec into a [`Workflow`] failed.
#[derive(Debug)]
pub enum SpecLoadError {
    /// The file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The spec does not parse or compile.
    Parse(SpecParseError),
    /// The spec compiled but carries deny-level issues (undeclared trigger
    /// references, conflicting constructs) — or warn-level issues under
    /// [`SpecOptions::strict`].
    Invalid {
        /// Rendered issues, in spec order.
        issues: Vec<String>,
    },
}

impl fmt::Display for SpecLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecLoadError::Io { path, source } => write!(f, "reading spec {path:?}: {source}"),
            SpecLoadError::Parse(e) => e.fmt(f),
            SpecLoadError::Invalid { issues } => {
                write!(f, "invalid spec: {}", issues.join("; "))
            }
        }
    }
}

impl std::error::Error for SpecLoadError {}

impl From<SpecParseError> for SpecLoadError {
    fn from(e: SpecParseError) -> SpecLoadError {
        SpecLoadError::Parse(e)
    }
}

/// Options for loading a spec via
/// [`Workflow::from_spec_with`](crate::Workflow::from_spec_with).
///
/// Marked `#[non_exhaustive]`; construct via [`SpecOptions::default`] (or
/// [`SpecOptions::new`]) and refine with the `with_*` setters.
#[non_exhaustive]
#[derive(Debug, Clone, Default)]
pub struct SpecOptions {
    /// Treat warn-level spec issues (unknown keys) as load errors too.
    pub strict: bool,
}

impl SpecOptions {
    /// The default options: warn-level issues are ignored at load time
    /// (run `sb-lint` to see them).
    pub fn new() -> SpecOptions {
        SpecOptions::default()
    }

    /// Refuses to load a spec with *any* issue, warn-level included
    /// (builder style).
    pub fn with_strict(mut self, strict: bool) -> SpecOptions {
        self.strict = strict;
        self
    }
}

/// One parsed scalar (or list) value of a spec key.
#[derive(Debug, Clone, PartialEq)]
enum SpecValue {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    /// List items are normalized to strings (args, members).
    List(Vec<String>),
}

impl SpecValue {
    fn type_name(&self) -> &'static str {
        match self {
            SpecValue::Str(_) => "a string",
            SpecValue::Int(_) => "an integer",
            SpecValue::Float(_) => "a float",
            SpecValue::Bool(_) => "a boolean",
            SpecValue::List(_) => "a list",
        }
    }
}

/// One `[table]` / `[[table]]` section with its keys and source lines.
#[derive(Debug, Clone)]
struct RawTable {
    /// Dotted header path segments (`policy.gromacs` → `["policy", "gromacs"]`).
    path: Vec<String>,
    /// 1-based line of the header.
    line: usize,
    /// `key -> (value, 1-based key line)`, in declaration order.
    entries: Vec<(String, SpecValue, usize)>,
}

impl RawTable {
    fn get(&self, key: &str) -> Option<(&SpecValue, usize)> {
        self.entries
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, l)| (v, *l))
    }
}

/// The compiled form of a `.sbw` spec: everything `sb-lint`, `sb-run`, and
/// [`Workflow::from_spec`] need, in one value.
#[derive(Debug, Clone)]
pub struct ParsedSpec {
    /// The `[workflow] name`, when declared.
    pub name: Option<String>,
    /// The launch entries the spec compiled to, with `.sbw` line numbers.
    pub entries: Vec<LaunchEntry>,
    /// The script-level directives (transport, policies, processes) the
    /// spec compiled to, with `.sbw` line numbers.
    pub directives: ScriptDirectives,
    /// Parsed reactive trigger clauses, in declaration order.
    pub triggers: Vec<Trigger>,
    /// The `[trace]` table, when enabled.
    pub trace: Option<TraceConfig>,
    /// The `[transport] timeout_secs`, when declared.
    pub hub_timeout: Option<Duration>,
    /// The `[transport] protocol`, when declared.
    pub protocol: Option<WireProtocol>,
    /// The `[transport] compression`, when declared.
    pub compression: Option<Compression>,
    /// Spec-level issues (SB018–SB020), in spec order.
    pub issues: Vec<SpecIssue>,
    /// The line-preserving launch script the spec compiled through: line
    /// `n` of this text corresponds to line `n` of the `.sbw` file.
    pub script: String,
}

impl ParsedSpec {
    /// The deny-level issues, rendered with their lines.
    pub fn deny_issues(&self) -> Vec<String> {
        self.issues
            .iter()
            .filter(|i| i.is_deny())
            .map(|i| format!("line {}: {i}", i.line()))
            .collect()
    }
}

/// The `.sbw` spec language: [`WorkflowSpec::parse`] compiles spec text
/// into a [`ParsedSpec`].
pub struct WorkflowSpec;

/// The option keys a `[[component]]` table may carry, mirrored onto the
/// synthesized launch line as `key=value` tokens.
const COMPONENT_OPTION_KEYS: &[&str] = &["group", "queue", "rendezvous", "groups", "stride"];

impl WorkflowSpec {
    /// Parses and compiles `.sbw` text. `Err` means the spec cannot
    /// compile at all; an `Ok` value may still carry [`SpecIssue`]s.
    pub fn parse(text: &str) -> Result<ParsedSpec, SpecParseError> {
        let tables = parse_tables(text)?;
        let mut issues: Vec<SpecIssue> = Vec::new();
        let mut name = None;
        let mut trace: Option<TraceConfig> = None;
        let mut hub_timeout = None;
        let mut protocol = None;
        let mut compression = None;
        // Rendered launch-script lines by 1-based spec line.
        let mut rendered: BTreeMap<usize, String> = BTreeMap::new();
        let mut seen_single: BTreeMap<String, usize> = BTreeMap::new();
        let mut process_members: Vec<(String, String, usize)> = Vec::new();
        let mut trigger_tables: Vec<&RawTable> = Vec::new();

        for table in &tables {
            let header = table.path.join(".");
            // Duplicate non-array tables contradict each other.
            let is_array = matches!(table.path[0].as_str(), "component" | "trigger");
            if !is_array {
                if let Some(first) = seen_single.insert(header.clone(), table.line) {
                    issues.push(SpecIssue::Conflict {
                        detail: format!("duplicate [{header}] table (first at line {first})"),
                        line: table.line,
                    });
                    continue;
                }
            }
            match (table.path[0].as_str(), table.path.len()) {
                ("workflow", 1) => {
                    name = opt_str(table, "name", &mut issues)?;
                    warn_unknown(table, &["name"], &mut issues);
                }
                ("transport", 1) => {
                    let url = if let Some((url, line)) = table.get("url") {
                        let url = expect_str(url, "url", line)?;
                        rendered.insert(line, format!("#@ transport {url}"));
                        Some(url)
                    } else {
                        None
                    };
                    if let Some((v, line)) = table.get("protocol") {
                        match expect_str(v, "protocol", line)?.as_str() {
                            "v1" => protocol = Some(WireProtocol::V1),
                            "v2" => protocol = Some(WireProtocol::V2),
                            // "shm" names the fabric, not a frame format: it
                            // pins the declared endpoint to the same-host
                            // `shm://` scheme and leaves the wire protocol
                            // (v1/v2 over its socket) at its default.
                            "shm" => match url.as_deref() {
                                Some(u) if u.starts_with("shm://") => {}
                                Some(u) => {
                                    return Err(err(
                                        line,
                                        format!("protocol \"shm\" needs an shm:// url, got {u:?}"),
                                    ))
                                }
                                None => {
                                    return Err(err(
                                        line,
                                        "protocol \"shm\" needs a [transport] url declaring an \
                                         shm:// endpoint"
                                            .to_string(),
                                    ))
                                }
                            },
                            other => {
                                return Err(err(
                                    line,
                                    format!("bad protocol {other:?} (v1 | v2 | shm)"),
                                ))
                            }
                        }
                    }
                    if let Some((v, line)) = table.get("compression") {
                        compression = Some(match expect_str(v, "compression", line)?.as_str() {
                            "none" => Compression::None,
                            "lz" => Compression::Lz,
                            other => {
                                return Err(err(
                                    line,
                                    format!("bad compression {other:?} (none | lz)"),
                                ))
                            }
                        });
                    }
                    if let Some((v, line)) = table.get("timeout_secs") {
                        let secs = expect_pos_int(v, "timeout_secs", line)?;
                        hub_timeout = Some(Duration::from_secs(secs as u64));
                    }
                    warn_unknown(
                        table,
                        &["url", "protocol", "compression", "timeout_secs"],
                        &mut issues,
                    );
                }
                ("trace", 1) => {
                    let enabled = match table.get("enabled") {
                        Some((v, line)) => expect_bool(v, "enabled", line)?,
                        None => true,
                    };
                    if enabled {
                        let mut config = TraceConfig::new();
                        if let Some((v, line)) = table.get("ring_capacity") {
                            config = config.with_ring_capacity(expect_pos_int(
                                v,
                                "ring_capacity",
                                line,
                            )?);
                        }
                        trace = Some(config);
                    }
                    warn_unknown(table, &["enabled", "ring_capacity"], &mut issues);
                }
                ("component", 1) => {
                    let rendered_line = render_component(table, &mut issues)?;
                    rendered.insert(table.line, rendered_line);
                }
                ("policy", 2) => {
                    let label = &table.path[1];
                    let spec = render_policy(table, &mut issues)?;
                    rendered.insert(table.line, format!("#@ policy {label} {spec}"));
                }
                ("process", 2) => {
                    let pname = &table.path[1];
                    let Some((members, mline)) = table.get("members") else {
                        return Err(err(table.line, "[process.*] needs members = [\"…\"]"));
                    };
                    let members = expect_list(members, "members", mline)?;
                    if members.is_empty() {
                        return Err(err(mline, "members must not be empty"));
                    }
                    for m in &members {
                        no_whitespace(m, "member", mline)?;
                        process_members.push((m.clone(), pname.clone(), table.line));
                    }
                    warn_unknown(table, &["members"], &mut issues);
                    rendered.insert(
                        table.line,
                        format!("#@ process {pname} {}", members.join(",")),
                    );
                }
                ("trigger", 1) => trigger_tables.push(table),
                _ => issues.push(SpecIssue::UnknownKey {
                    key: format!("[{header}]"),
                    table: "(top level)".into(),
                    line: table.line,
                }),
            }
        }

        // A component in two process groups would be launched twice.
        for (i, (member, pname, line)) in process_members.iter().enumerate() {
            if let Some((_, other, _)) = process_members[..i].iter().find(|(m, _, _)| m == member) {
                issues.push(SpecIssue::Conflict {
                    detail: format!(
                        "component {member:?} is assigned to both process {other:?} and \
                         process {pname:?}"
                    ),
                    line: *line,
                });
            }
        }

        // Synthesize the line-preserving script and reuse the launch
        // grammar wholesale: its errors carry `.sbw`-accurate lines.
        let last = rendered.keys().max().copied().unwrap_or(0);
        let mut script = String::new();
        for lineno in 1..=last {
            if let Some(line) = rendered.get(&lineno) {
                script.push_str(line);
            }
            script.push('\n');
        }
        let (entries, directives) =
            parse_script_with_directives(&script).map_err(|e| err(e.line, e.detail))?;

        // Labels every process agrees on, for trigger-reference checks.
        let labels: Vec<String> = plan_script(&script)
            .map_err(|e| err(e.line, e.detail))?
            .0
            .into_iter()
            .map(|p| p.label)
            .collect();

        let mut triggers = Vec::new();
        for table in trigger_tables {
            let Some((when, wline)) = table.get("when") else {
                return Err(err(table.line, "[[trigger]] needs a when clause"));
            };
            let when = expect_str(when, "when", wline)?;
            let Some((then, tline)) = table.get("then") else {
                return Err(err(table.line, "[[trigger]] needs a then clause"));
            };
            let then = expect_str(then, "then", tline)?;
            warn_unknown(table, &["when", "then"], &mut issues);
            let (component, signal, op, value) =
                Trigger::parse_when(&when).map_err(|detail| err(wline, detail))?;
            let action = Trigger::parse_then(&then).map_err(|detail| err(tline, detail))?;
            if !labels.iter().any(|l| l == &component) {
                issues.push(SpecIssue::UndeclaredTriggerRef {
                    reference: component.clone(),
                    line: table.line,
                });
            }
            let target = match &action {
                TriggerAction::SetOutputStride { target, .. }
                | TriggerAction::RaiseFaultPolicy { target, .. } => Some(target.clone()),
                TriggerAction::SnapshotStream { .. } => None,
            };
            if let Some(target) = target {
                if !labels.iter().any(|l| l == &target) {
                    issues.push(SpecIssue::UndeclaredTriggerRef {
                        reference: target,
                        line: table.line,
                    });
                }
            }
            let mut trigger = Trigger::new(component, signal, op, value, action);
            trigger.line = table.line;
            triggers.push(trigger);
        }

        issues.sort_by_key(|i| i.line());
        Ok(ParsedSpec {
            name,
            entries,
            directives,
            triggers,
            trace,
            hub_timeout,
            protocol,
            compression,
            issues,
            script,
        })
    }
}

impl Workflow {
    /// Loads a `.sbw` spec file into a ready-to-run in-process workflow:
    /// components, policies, triggers, trace config, and hub timeout all
    /// applied. With the prelude in scope, the documented two-line entry
    /// point is:
    ///
    /// ```ignore
    /// let wf = Workflow::from_spec("pipeline.sbw")?;
    /// let report = wf.run_with(RunOptions::default())?;
    /// ```
    ///
    /// The `[transport] url` is *not* dialed here — a single process runs
    /// the whole workflow in memory; `sb-run` uses the URL for
    /// multi-process deployments.
    pub fn from_spec(path: impl AsRef<std::path::Path>) -> Result<Workflow, SpecLoadError> {
        Workflow::from_spec_with(path, SpecOptions::default())
    }

    /// [`Workflow::from_spec`] with explicit [`SpecOptions`].
    pub fn from_spec_with(
        path: impl AsRef<std::path::Path>,
        options: SpecOptions,
    ) -> Result<Workflow, SpecLoadError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|source| SpecLoadError::Io {
            path: path.display().to_string(),
            source,
        })?;
        Workflow::from_spec_text_with(&text, options)
    }

    /// [`Workflow::from_spec`] over in-memory spec text.
    pub fn from_spec_text(text: &str) -> Result<Workflow, SpecLoadError> {
        Workflow::from_spec_text_with(text, SpecOptions::default())
    }

    /// [`Workflow::from_spec_text`] with explicit [`SpecOptions`].
    pub fn from_spec_text_with(
        text: &str,
        options: SpecOptions,
    ) -> Result<Workflow, SpecLoadError> {
        let spec = WorkflowSpec::parse(text)?;
        let issues: Vec<String> = if options.strict {
            spec.issues
                .iter()
                .map(|i| format!("line {}: {i}", i.line()))
                .collect()
        } else {
            spec.deny_issues()
        };
        if !issues.is_empty() {
            return Err(SpecLoadError::Invalid { issues });
        }
        let (plan, directives) =
            plan_script(&spec.script).map_err(|e| SpecLoadError::Parse(err(e.line, e.detail)))?;
        let mut wf = partial_workflow(StreamHub::new(), &plan, &[]).map_err(|detail| {
            SpecLoadError::Invalid {
                issues: vec![detail],
            }
        })?;
        apply_policy_directives(&mut wf, &directives);
        for trigger in spec.triggers {
            wf.add_trigger(trigger);
        }
        wf.default_trace = spec.trace;
        wf.default_hub_timeout = spec.hub_timeout;
        Ok(wf)
    }
}

fn err(line: usize, detail: impl Into<String>) -> SpecParseError {
    SpecParseError {
        line,
        detail: detail.into(),
    }
}

fn expect_str(v: &SpecValue, key: &str, line: usize) -> Result<String, SpecParseError> {
    match v {
        SpecValue::Str(s) => Ok(s.clone()),
        other => Err(err(
            line,
            format!("{key} must be a string, got {}", other.type_name()),
        )),
    }
}

fn expect_bool(v: &SpecValue, key: &str, line: usize) -> Result<bool, SpecParseError> {
    match v {
        SpecValue::Bool(b) => Ok(*b),
        other => Err(err(
            line,
            format!("{key} must be a boolean, got {}", other.type_name()),
        )),
    }
}

fn expect_pos_int(v: &SpecValue, key: &str, line: usize) -> Result<usize, SpecParseError> {
    match v {
        SpecValue::Int(n) if *n > 0 => Ok(*n as usize),
        SpecValue::Int(n) => Err(err(line, format!("{key} must be positive, got {n}"))),
        other => Err(err(
            line,
            format!("{key} must be an integer, got {}", other.type_name()),
        )),
    }
}

fn expect_list(v: &SpecValue, key: &str, line: usize) -> Result<Vec<String>, SpecParseError> {
    match v {
        SpecValue::List(items) => Ok(items.clone()),
        other => Err(err(
            line,
            format!("{key} must be a list, got {}", other.type_name()),
        )),
    }
}

/// Synthesized tokens go through a whitespace-splitting grammar, so no
/// token may contain whitespace.
fn no_whitespace(tok: &str, what: &str, line: usize) -> Result<(), SpecParseError> {
    if tok.chars().any(char::is_whitespace) || tok.is_empty() {
        return Err(err(
            line,
            format!("{what} {tok:?} must be one non-empty whitespace-free token"),
        ));
    }
    Ok(())
}

fn opt_str(
    table: &RawTable,
    key: &str,
    _issues: &mut [SpecIssue],
) -> Result<Option<String>, SpecParseError> {
    match table.get(key) {
        Some((v, line)) => Ok(Some(expect_str(v, key, line)?)),
        None => Ok(None),
    }
}

/// Flags every key of `table` not in `known` as SB018.
fn warn_unknown(table: &RawTable, known: &[&str], issues: &mut Vec<SpecIssue>) {
    let header = table.path.join(".");
    for (key, _, line) in &table.entries {
        if !known.contains(&key.as_str()) {
            issues.push(SpecIssue::UnknownKey {
                key: key.clone(),
                table: format!("[{header}]"),
                line: *line,
            });
        }
    }
}

/// Renders one `[[component]]` table as its launch-script line.
fn render_component(
    table: &RawTable,
    issues: &mut Vec<SpecIssue>,
) -> Result<String, SpecParseError> {
    let Some((program, pline)) = table.get("program") else {
        return Err(err(table.line, "[[component]] needs a program"));
    };
    let program = expect_str(program, "program", pline)?;
    no_whitespace(&program, "program", pline)?;
    let ranks = match table.get("ranks") {
        Some((v, line)) => expect_pos_int(v, "ranks", line)?,
        None => 1,
    };
    let mut line = format!("aprun -n {ranks} {program}");
    if let Some((args, aline)) = table.get("args") {
        for arg in expect_list(args, "args", aline)? {
            no_whitespace(&arg, "argument", aline)?;
            line.push(' ');
            line.push_str(&arg);
        }
    }
    for key in COMPONENT_OPTION_KEYS {
        let Some((v, vline)) = table.get(key) else {
            continue;
        };
        let value = match (v, *key) {
            (SpecValue::Bool(b), "rendezvous") => usize::from(*b).to_string(),
            (SpecValue::Str(s), "group") => {
                no_whitespace(s, "group", vline)?;
                s.clone()
            }
            (_, "group") => return Err(err(vline, "group must be a string")),
            (_, "rendezvous") => return Err(err(vline, "rendezvous must be a boolean")),
            (v, key) => expect_pos_int(v, key, vline)?.to_string(),
        };
        line.push_str(&format!(" {key}={value}"));
    }
    let mut known: Vec<&str> = vec!["program", "ranks", "args"];
    known.extend_from_slice(COMPONENT_OPTION_KEYS);
    warn_unknown(table, &known, issues);
    line.push_str(" &");
    Ok(line)
}

/// Renders one `[policy.LABEL]` table as its directive spec token
/// (`abort`, `degrade`, `restart:N[:MS]`).
fn render_policy(table: &RawTable, issues: &mut Vec<SpecIssue>) -> Result<String, SpecParseError> {
    let Some((action, aline)) = table.get("action") else {
        return Err(err(table.line, "[policy.*] needs an action"));
    };
    let action = expect_str(action, "action", aline)?;
    warn_unknown(table, &["action", "max_restarts", "backoff_ms"], issues);
    match action.as_str() {
        "abort" | "degrade" => {
            for key in ["max_restarts", "backoff_ms"] {
                if let Some((_, kline)) = table.get(key) {
                    issues.push(SpecIssue::Conflict {
                        detail: format!("{key} is meaningless with action = {action:?}"),
                        line: kline,
                    });
                }
            }
            Ok(action)
        }
        "restart" => {
            let Some((n, nline)) = table.get("max_restarts") else {
                return Err(err(aline, "action = \"restart\" needs max_restarts"));
            };
            let n = expect_pos_int(n, "max_restarts", nline)?;
            match table.get("backoff_ms") {
                Some((ms, mline)) => {
                    let ms = expect_pos_int(ms, "backoff_ms", mline)?;
                    Ok(format!("restart:{n}:{ms}"))
                }
                None => Ok(format!("restart:{n}")),
            }
        }
        other => Err(err(
            aline,
            format!("bad action {other:?} (abort, degrade, or restart)"),
        )),
    }
}

/// Parses the TOML subset into raw tables with per-key line numbers.
fn parse_tables(text: &str) -> Result<Vec<RawTable>, SpecParseError> {
    let mut tables: Vec<RawTable> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let s = strip_comment(raw).trim();
        if s.is_empty() {
            continue;
        }
        if let Some(header) = s.strip_prefix("[[") {
            let Some(header) = header.strip_suffix("]]") else {
                return Err(err(line, "unterminated [[…]] header"));
            };
            tables.push(RawTable {
                path: parse_path(header, line)?,
                line,
                entries: Vec::new(),
            });
            continue;
        }
        if let Some(header) = s.strip_prefix('[') {
            let Some(header) = header.strip_suffix(']') else {
                return Err(err(line, "unterminated […] header"));
            };
            tables.push(RawTable {
                path: parse_path(header, line)?,
                line,
                entries: Vec::new(),
            });
            continue;
        }
        let Some((key, value)) = s.split_once('=') else {
            return Err(err(line, format!("expected key = value, got {s:?}")));
        };
        let key = key.trim();
        if key.is_empty() || key.contains(char::is_whitespace) {
            return Err(err(line, format!("bad key {key:?}")));
        }
        let value = parse_value(value.trim(), line)?;
        let Some(table) = tables.last_mut() else {
            return Err(err(line, "keys must live in a [table]"));
        };
        if table.entries.iter().any(|(k, _, _)| k == key) {
            return Err(err(line, format!("duplicate key {key:?}")));
        }
        table.entries.push((key.to_string(), value, line));
    }
    Ok(tables)
}

/// Strips a `#` comment, respecting `"…"` strings.
fn strip_comment(raw: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in raw.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &raw[..i],
            _ => {}
        }
        escaped = false;
    }
    raw
}

fn parse_path(header: &str, line: usize) -> Result<Vec<String>, SpecParseError> {
    let path: Vec<String> = header
        .trim()
        .split('.')
        .map(|s| s.trim().to_string())
        .collect();
    if path
        .iter()
        .any(|s| s.is_empty() || s.contains(char::is_whitespace))
    {
        return Err(err(line, format!("bad table header {header:?}")));
    }
    Ok(path)
}

fn parse_value(tok: &str, line: usize) -> Result<SpecValue, SpecParseError> {
    if tok.is_empty() {
        return Err(err(line, "missing value"));
    }
    if let Some(rest) = tok.strip_prefix('[') {
        let Some(body) = rest.strip_suffix(']') else {
            return Err(err(line, "unterminated list (lists are single-line)"));
        };
        let mut items = Vec::new();
        for item in split_list(body) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match parse_scalar(item, line)? {
                SpecValue::Str(s) => items.push(s),
                SpecValue::Int(n) => items.push(n.to_string()),
                other => {
                    return Err(err(
                        line,
                        format!(
                            "list items must be strings or integers, got {}",
                            other.type_name()
                        ),
                    ))
                }
            }
        }
        return Ok(SpecValue::List(items));
    }
    parse_scalar(tok, line)
}

/// Splits a list body on commas outside strings.
fn split_list(body: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in body.chars() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                current.push(c);
                continue;
            }
            '"' if !escaped => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => {
                items.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
        escaped = false;
    }
    if !current.trim().is_empty() {
        items.push(current);
    }
    items
}

fn parse_scalar(tok: &str, line: usize) -> Result<SpecValue, SpecParseError> {
    if let Some(rest) = tok.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err(err(line, format!("unterminated string {tok:?}")));
        };
        let mut out = String::new();
        let mut escaped = false;
        for c in body.chars() {
            if escaped {
                match c {
                    '"' | '\\' => out.push(c),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    other => return Err(err(line, format!("unknown escape \\{other}"))),
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                return Err(err(line, format!("stray quote inside {tok:?}")));
            } else {
                out.push(c);
            }
        }
        if escaped {
            return Err(err(line, format!("dangling escape in {tok:?}")));
        }
        return Ok(SpecValue::Str(out));
    }
    match tok {
        "true" => return Ok(SpecValue::Bool(true)),
        "false" => return Ok(SpecValue::Bool(false)),
        _ => {}
    }
    if let Ok(n) = tok.parse::<i64>() {
        return Ok(SpecValue::Int(n));
    }
    if let Ok(f) = tok.parse::<f64>() {
        return Ok(SpecValue::Float(f));
    }
    Err(err(
        line,
        format!("bad value {tok:?} (string, integer, float, boolean, or [list])"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::Program;
    use crate::supervisor::{FailureAction, FaultPolicy};
    use crate::triggers::TriggerOp;

    const SPEC: &str = r#"
# A full-feature spec.
[workflow]
name = "demo"

[transport]
url = "tcp://127.0.0.1:7654"
protocol = "v2"
compression = "lz"
timeout_secs = 30

[trace]
enabled = true
ring_capacity = 512

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
ranks = 1
args = ["m.fp", "r", "8"]

[policy.gromacs]
action = "restart"
max_restarts = 2
backoff_ms = 50

[process.sim]
members = ["gromacs"]

[process.viz]
members = ["magnitude", "histogram"]

[[trigger]]
when = "histogram.max > 100"
then = "snapshot_stream m.fp /tmp/spec_snap.txt"
"#;

    #[test]
    fn full_spec_compiles_with_sbw_line_numbers() {
        let spec = WorkflowSpec::parse(SPEC).unwrap();
        assert_eq!(spec.name.as_deref(), Some("demo"));
        assert!(spec.issues.is_empty(), "{:?}", spec.issues);
        assert_eq!(spec.entries.len(), 3);
        // Entries carry the line of their [[component]] header.
        assert_eq!(spec.entries[0].line, 16);
        assert_eq!(spec.entries[0].nranks, 2);
        assert!(matches!(
            spec.entries[0].program,
            Program::Simulation { .. }
        ));
        assert!(matches!(
            spec.entries[2].program,
            Program::Histogram { num_bins: 8, .. }
        ));
        assert_eq!(
            spec.directives.transport.as_deref(),
            Some("tcp://127.0.0.1:7654")
        );
        assert_eq!(spec.directives.policies.len(), 1);
        assert_eq!(spec.directives.policies[0].label, "gromacs");
        assert_eq!(
            spec.directives.policies[0].policy,
            FaultPolicy::restart(2).with_backoff(Duration::from_millis(50))
        );
        assert_eq!(spec.directives.processes.len(), 2);
        assert_eq!(
            spec.directives.processes[1].members,
            ["magnitude", "histogram"]
        );
        assert_eq!(spec.protocol, Some(WireProtocol::V2));
        assert_eq!(spec.compression, Some(Compression::Lz));
        assert_eq!(spec.hub_timeout, Some(Duration::from_secs(30)));
        assert!(spec.trace.is_some());
        assert_eq!(spec.triggers.len(), 1);
        assert_eq!(spec.triggers[0].component, "histogram");
        assert_eq!(spec.triggers[0].op, TriggerOp::Gt);
        // The synthesized script preserves spec line numbers.
        let lines: Vec<&str> = spec.script.lines().collect();
        assert_eq!(
            lines[15],
            "aprun -n 2 gromacs chains=4 len=4 steps=3 interval=2 &"
        );
        assert_eq!(lines[6], "#@ transport tcp://127.0.0.1:7654");
    }

    #[test]
    fn component_options_round_trip_through_the_launch_grammar() {
        let spec = WorkflowSpec::parse(
            r#"
[[component]]
program = "temporal-mean"
args = ["a.fp", "x", "3", "b.fp", "y"]
group = "smooth"
queue = 4
rendezvous = true
groups = 2
stride = 3
"#,
        )
        .unwrap();
        let e = &spec.entries[0];
        assert_eq!(e.nranks, 1, "ranks defaults to 1");
        assert_eq!(e.options["group"], "smooth");
        assert_eq!(e.options["queue"], "4");
        assert_eq!(e.options["rendezvous"], "1");
        assert_eq!(e.options["groups"], "2");
        assert_eq!(e.options["stride"], "3");
    }

    #[test]
    fn unknown_keys_warn_but_compile() {
        let spec = WorkflowSpec::parse(
            "[workflow]\nname = \"x\"\ncolor = \"red\"\n\n[[component]]\nprogram = \"histogram\"\nargs = [\"a.fp\", \"x\", \"4\"]\nfrobnicate = 9\n",
        )
        .unwrap();
        assert_eq!(spec.issues.len(), 2, "{:?}", spec.issues);
        assert!(matches!(
            &spec.issues[0],
            SpecIssue::UnknownKey { key, line: 3, .. } if key == "color"
        ));
        assert!(!spec.issues[0].is_deny());
        assert_eq!(spec.entries.len(), 1);
    }

    #[test]
    fn unknown_table_warns() {
        let spec = WorkflowSpec::parse("[teleport]\nurl = \"tcp://h:1\"\n").unwrap();
        assert!(matches!(
            &spec.issues[0],
            SpecIssue::UnknownKey { key, .. } if key == "[teleport]"
        ));
    }

    #[test]
    fn undeclared_trigger_refs_are_deny() {
        let spec = WorkflowSpec::parse(
            "[[component]]\nprogram = \"histogram\"\nargs = [\"a.fp\", \"x\", \"4\"]\n\n[[trigger]]\nwhen = \"ghost.max > 1\"\nthen = \"set_output_stride phantom 2\"\n",
        )
        .unwrap();
        let refs: Vec<&str> = spec
            .issues
            .iter()
            .filter_map(|i| match i {
                SpecIssue::UndeclaredTriggerRef { reference, .. } => Some(reference.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(refs, ["ghost", "phantom"]);
        assert!(spec.issues.iter().all(|i| i.is_deny()));
        assert!(Workflow::from_spec_text(
            "[[component]]\nprogram = \"histogram\"\nargs = [\"a.fp\", \"x\", \"4\"]\n\n[[trigger]]\nwhen = \"ghost.max > 1\"\nthen = \"snapshot_stream a.fp /tmp/x\"\n"
        )
        .is_err());
    }

    #[test]
    fn conflicts_are_deny() {
        // Duplicate table.
        let spec = WorkflowSpec::parse(
            "[transport]\nurl = \"tcp://h:1\"\n\n[transport]\nurl = \"tcp://h:2\"\n",
        )
        .unwrap();
        assert!(matches!(
            spec.issues[0],
            SpecIssue::Conflict { line: 4, .. }
        ));
        // Component in two process groups.
        let spec = WorkflowSpec::parse(
            "[[component]]\nprogram = \"histogram\"\nargs = [\"a.fp\", \"x\", \"4\"]\n\n[process.a]\nmembers = [\"histogram\"]\n\n[process.b]\nmembers = [\"histogram\"]\n",
        )
        .unwrap();
        assert!(
            spec.issues
                .iter()
                .any(|i| matches!(i, SpecIssue::Conflict { .. })),
            "{:?}",
            spec.issues
        );
        // Policy knobs the action ignores.
        let spec =
            WorkflowSpec::parse("[policy.h]\naction = \"degrade\"\nmax_restarts = 3\n").unwrap();
        assert!(matches!(
            &spec.issues[0],
            SpecIssue::Conflict { line: 3, .. }
        ));
    }

    #[test]
    fn grammar_errors_carry_spec_lines() {
        // Bad positional args surface through the launch grammar at the
        // [[component]] header's line.
        let e = WorkflowSpec::parse(
            "\n\n[[component]]\nprogram = \"histogram\"\nargs = [\"a.fp\", \"x\", \"lots\"]\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.detail.contains("num-bins"), "{e}");
        // Spec-syntax errors carry their own line.
        for (text, line) in [
            ("[[component]\nprogram = \"x\"", 1),
            ("key = 1", 1),
            ("[t]\nkey = ", 2),
            ("[t]\nkey = nope", 2),
            ("[t]\nkey = \"unterminated", 2),
            ("[t]\na = 1\na = 2", 3),
            ("[policy.h]\naction = \"retry\"", 2),
            ("[policy.h]\naction = \"restart\"", 2),
            ("[process.p]\nmembers = []", 2),
            ("[[trigger]]\nwhen = \"a.b > 1\"", 1),
            ("[transport]\nprotocol = \"v3\"", 2),
            // protocol = "shm" pins the declared url to the shm:// scheme.
            ("[transport]\nurl = \"tcp://h:1\"\nprotocol = \"shm\"", 3),
            ("[transport]\nprotocol = \"shm\"", 2),
        ] {
            let e = WorkflowSpec::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?} -> {e}");
        }
    }

    #[test]
    fn transport_protocol_shm_accepts_shm_url() {
        let spec =
            WorkflowSpec::parse("[transport]\nurl = \"shm:///tmp/sb-rings\"\nprotocol = \"shm\"\n")
                .unwrap();
        assert_eq!(
            spec.directives.transport.as_deref(),
            Some("shm:///tmp/sb-rings")
        );
        // The fabric keyword leaves the wire protocol at its default.
        assert_eq!(spec.protocol, None);
    }

    #[test]
    fn comments_and_strings_interact_correctly() {
        let spec =
            WorkflowSpec::parse("[workflow] # trailing comment\nname = \"has # hash\" # another\n")
                .unwrap();
        assert_eq!(spec.name.as_deref(), Some("has # hash"));
    }

    #[test]
    fn from_spec_text_builds_a_runnable_workflow() {
        let wf = Workflow::from_spec_text(
            r#"
[[component]]
program = "gromacs"
ranks = 1
args = ["chains=2", "len=2", "steps=2", "interval=1"]

[[component]]
program = "magnitude"
args = ["gromacs.fp", "coords", "m.fp", "r"]

[[component]]
program = "histogram"
args = ["m.fp", "r", "4"]

[policy.gromacs]
action = "degrade"
"#,
        )
        .unwrap();
        assert_eq!(wf.labels(), vec!["gromacs", "magnitude", "histogram"]);
        let report = wf
            .run_with(crate::supervisor::RunOptions::default())
            .unwrap();
        assert_eq!(report.component("histogram").unwrap().stats.steps, 2);
    }

    #[test]
    fn strict_options_reject_warn_level_issues() {
        let text = "[[component]]\nprogram = \"histogram\"\nargs = [\"a.fp\", \"x\", \"4\"]\nfrobnicate = 1\n";
        assert!(Workflow::from_spec_text(text).is_ok());
        let e = match Workflow::from_spec_text_with(text, SpecOptions::new().with_strict(true)) {
            Err(e) => e,
            Ok(_) => panic!("strict load should reject warn-level issues"),
        };
        assert!(e.to_string().contains("frobnicate"), "{e}");
    }

    #[test]
    fn policy_action_conflict_checks() {
        let spec =
            WorkflowSpec::parse("[policy.h]\naction = \"abort\"\nbackoff_ms = 10\n").unwrap();
        assert!(matches!(&spec.issues[0], SpecIssue::Conflict { .. }));
        assert_eq!(
            WorkflowSpec::parse("[policy.h]\naction = \"restart\"\nmax_restarts = 1\n")
                .unwrap()
                .directives
                .policies[0]
                .policy
                .action,
            FailureAction::Restart
        );
    }
}
