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
//! [`WorkflowPlan::from_spec`] lowers the tables straight to the typed
//! [`WorkflowPlan`] the `.sb` importer also produces; no launch-script text
//! is synthesized on the way. Each `[[component]]` table hands its
//! `program`, `ranks` and `args` to the per-entry grammar
//! ([`crate::launch`]'s `launch`) — one non-empty `args` element is one
//! token, whatever characters it holds — and its typed option keys are set on the
//! resulting [`LaunchEntry`]; `[transport]`, `[policy.*]` and
//! `[process.*]` tables become the same directive values a script's `#@`
//! lines do.
//!
//! Every value carries the 1-based `.sbw` line it was read from: an entry
//! its `[[component]]` header, a policy or process its table header, the
//! transport its `url` key, a trigger its `[[trigger]]` header. Errors and
//! lint diagnostics therefore point into the spec file itself.
//!
//! Spec-*level* issues (unknown keys, trigger references to undeclared
//! components, policy conflicts) are collected as [`SpecIssue`]s on
//! [`WorkflowPlan::issues`] and surface through the lint engine as
//! SB018–SB020.
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

use crate::launch::{err, launch, LaunchEntry, LaunchError, PolicyDirective, ProcessDirective};
use crate::plan::{plan_components, WorkflowPlan};
use crate::runtime::Workflow;
use crate::supervisor::FaultPolicy;
use crate::triggers::{Trigger, TriggerAction};

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
    /// The spec does not parse or compile: one error per offending line.
    Parse(Vec<LaunchError>),
    /// The spec compiled but carries deny-level issues (undeclared trigger
    /// references, conflicting constructs).
    Invalid {
        /// Rendered issues, in spec order.
        issues: Vec<String>,
    },
}

impl fmt::Display for SpecLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecLoadError::Io { path, source } => write!(f, "reading spec {path:?}: {source}"),
            SpecLoadError::Parse(errors) => {
                let lines: Vec<String> = errors.iter().map(|e| format!("spec {e}")).collect();
                f.write_str(&lines.join("; "))
            }
            SpecLoadError::Invalid { issues } => {
                write!(f, "invalid spec: {}", issues.join("; "))
            }
        }
    }
}

impl std::error::Error for SpecLoadError {}

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

/// The option keys a `[[component]]` table may carry, set on the lowered
/// entry as launch options.
const COMPONENT_OPTION_KEYS: &[&str] = &["group", "queue", "rendezvous", "groups", "stride"];

impl WorkflowPlan {
    /// Compiles `.sbw` text into a plan. `Err` means the spec cannot
    /// compile at all (a syntax error stops at its line; components that
    /// reject their arguments are all reported); an `Ok` plan may still
    /// carry [`SpecIssue`]s.
    pub fn from_spec(text: &str) -> Result<WorkflowPlan, Vec<LaunchError>> {
        let (entries, mut plan) = lower(text).map_err(|e| vec![e])?;
        plan.components = plan_components(entries)?;

        // Trigger references resolve against the labels every process
        // agrees on, which exist only now.
        for trigger in &plan.triggers {
            let target = match &trigger.action {
                TriggerAction::SetOutputStride { target, .. }
                | TriggerAction::RaiseFaultPolicy { target, .. } => Some(target),
                TriggerAction::SnapshotStream { .. } => None,
            };
            for reference in std::iter::once(&trigger.component).chain(target) {
                if !plan.declares(reference) {
                    plan.issues.push(SpecIssue::UndeclaredTriggerRef {
                        reference: reference.clone(),
                        line: trigger.line,
                    });
                }
            }
        }
        plan.issues.sort_by_key(|i| i.line());
        Ok(plan)
    }
}

/// Lowers the spec's tables to launch entries plus everything else the
/// plan carries (its `components` are planned by the caller).
fn lower(text: &str) -> Result<(Vec<LaunchEntry>, WorkflowPlan), LaunchError> {
    let tables = parse_tables(text)?;
    let mut plan = WorkflowPlan::default();
    let mut entries = Vec::new();
    let mut seen_single: BTreeMap<String, usize> = BTreeMap::new();

    for table in &tables {
        let header = table.path.join(".");
        // Duplicate non-array tables contradict each other.
        let is_array = matches!(table.path[0].as_str(), "component" | "trigger");
        if !is_array {
            if let Some(first) = seen_single.insert(header.clone(), table.line) {
                plan.issues.push(SpecIssue::Conflict {
                    detail: format!("duplicate [{header}] table (first at line {first})"),
                    line: table.line,
                });
                continue;
            }
        }
        match (table.path[0].as_str(), table.path.len()) {
            ("workflow", 1) => {
                if let Some((v, line)) = table.get("name") {
                    plan.name = Some(expect_str(v, "name", line)?);
                }
                warn_unknown(table, &["name"], &mut plan.issues);
            }
            ("transport", 1) => lower_transport(table, &mut plan)?,
            ("trace", 1) => {
                let enabled = match table.get("enabled") {
                    Some((v, line)) => expect_bool(v, "enabled", line)?,
                    None => true,
                };
                if enabled {
                    let mut config = TraceConfig::new();
                    if let Some((v, line)) = table.get("ring_capacity") {
                        config =
                            config.with_ring_capacity(expect_pos_int(v, "ring_capacity", line)?);
                    }
                    plan.trace = Some(config);
                }
                warn_unknown(table, &["enabled", "ring_capacity"], &mut plan.issues);
            }
            ("component", 1) => entries.push(lower_component(table, &mut plan.issues)?),
            ("policy", 2) => {
                let policy = lower_policy(table, &mut plan.issues)?;
                plan.directives.policies.push(PolicyDirective {
                    label: table.path[1].clone(),
                    policy,
                    line: table.line,
                });
            }
            ("process", 2) => {
                let Some((members, mline)) = table.get("members") else {
                    return Err(err(table.line, "[process.*] needs members = [\"…\"]"));
                };
                let members = expect_list(members, "members", mline)?;
                if members.is_empty() {
                    return Err(err(mline, "members must not be empty"));
                }
                for member in &members {
                    non_empty(member, "member", mline)?;
                }
                warn_unknown(table, &["members"], &mut plan.issues);
                plan.directives.processes.push(ProcessDirective {
                    name: table.path[1].clone(),
                    members,
                    line: table.line,
                });
            }
            ("trigger", 1) => plan.triggers.push(lower_trigger(table, &mut plan.issues)?),
            _ => plan.issues.push(SpecIssue::UnknownKey {
                key: format!("[{header}]"),
                table: "(top level)".into(),
                line: table.line,
            }),
        }
    }

    // A component in two process groups would be launched twice.
    let members: Vec<(&String, &ProcessDirective)> = plan
        .directives
        .processes
        .iter()
        .flat_map(|p| p.members.iter().map(move |m| (m, p)))
        .collect();
    for (i, (member, process)) in members.iter().enumerate() {
        if let Some((_, other)) = members[..i].iter().find(|(m, _)| m == member) {
            plan.issues.push(SpecIssue::Conflict {
                detail: format!(
                    "component {member:?} is assigned to both process {:?} and process {:?}",
                    other.name, process.name
                ),
                line: process.line,
            });
        }
    }
    Ok((entries, plan))
}

/// Lowers the `[transport]` table: the endpoint directive plus the wire
/// and timeout defaults.
fn lower_transport(table: &RawTable, plan: &mut WorkflowPlan) -> Result<(), LaunchError> {
    let url = match table.get("url") {
        Some((url, line)) => {
            let url = expect_str(url, "url", line)?;
            plan.directives.declare_transport(&url, line)?;
            Some(url)
        }
        None => None,
    };
    if let Some((v, line)) = table.get("protocol") {
        match expect_str(v, "protocol", line)?.as_str() {
            "v1" => plan.protocol = Some(WireProtocol::V1),
            "v2" => plan.protocol = Some(WireProtocol::V2),
            // "shm" names the fabric, not a frame format: it pins the
            // declared endpoint to the same-host `shm://` scheme and leaves
            // the wire protocol (v1/v2 over its socket) at its default.
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
                        "protocol \"shm\" needs a [transport] url declaring an shm:// endpoint",
                    ))
                }
            },
            other => return Err(err(line, format!("bad protocol {other:?} (v1 | v2 | shm)"))),
        }
    }
    if let Some((v, line)) = table.get("compression") {
        plan.compression = Some(match expect_str(v, "compression", line)?.as_str() {
            "none" => Compression::None,
            "lz" => Compression::Lz,
            other => return Err(err(line, format!("bad compression {other:?} (none | lz)"))),
        });
    }
    if let Some((v, line)) = table.get("timeout_secs") {
        let secs = expect_pos_int(v, "timeout_secs", line)?;
        plan.hub_timeout = Some(Duration::from_secs(secs as u64));
    }
    warn_unknown(
        table,
        &["url", "protocol", "compression", "timeout_secs"],
        &mut plan.issues,
    );
    Ok(())
}

/// Lowers one `[[component]]` table to its launch entry. Each `args`
/// element is one token of the launch grammar, passed through as written
/// (an empty one is refused).
fn lower_component(
    table: &RawTable,
    issues: &mut Vec<SpecIssue>,
) -> Result<LaunchEntry, LaunchError> {
    let Some((program, pline)) = table.get("program") else {
        return Err(err(table.line, "[[component]] needs a program"));
    };
    let program = expect_str(program, "program", pline)?;
    non_empty(&program, "program", pline)?;
    let ranks = match table.get("ranks") {
        Some((v, line)) => expect_pos_int(v, "ranks", line)?,
        None => 1,
    };
    let args = match table.get("args") {
        Some((args, aline)) => {
            let args = expect_list(args, "args", aline)?;
            for arg in &args {
                non_empty(arg, "argument", aline)?;
            }
            args
        }
        None => Vec::new(),
    };
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut entry = launch(ranks, &program, &args, table.line)?;
    for key in COMPONENT_OPTION_KEYS {
        let Some((v, vline)) = table.get(key) else {
            continue;
        };
        let value = match (v, *key) {
            (SpecValue::Bool(b), "rendezvous") => usize::from(*b).to_string(),
            (SpecValue::Str(s), "group") => {
                non_empty(s, "group", vline)?;
                s.clone()
            }
            (_, "group") => return Err(err(vline, "group must be a string")),
            (_, "rendezvous") => return Err(err(vline, "rendezvous must be a boolean")),
            (v, key) => expect_pos_int(v, key, vline)?.to_string(),
        };
        entry.set_option(key, value);
    }
    let mut known: Vec<&str> = vec!["program", "ranks", "args"];
    known.extend_from_slice(COMPONENT_OPTION_KEYS);
    warn_unknown(table, &known, issues);
    Ok(entry)
}

/// Lowers one `[policy.LABEL]` table to its fault policy.
fn lower_policy(table: &RawTable, issues: &mut Vec<SpecIssue>) -> Result<FaultPolicy, LaunchError> {
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
            Ok(if action == "abort" {
                FaultPolicy::abort()
            } else {
                FaultPolicy::degrade()
            })
        }
        "restart" => {
            let Some((n, nline)) = table.get("max_restarts") else {
                return Err(err(aline, "action = \"restart\" needs max_restarts"));
            };
            let n = u32::try_from(expect_pos_int(n, "max_restarts", nline)?)
                .map_err(|_| err(nline, "max_restarts is too large"))?;
            let mut policy = FaultPolicy::restart(n);
            if let Some((ms, mline)) = table.get("backoff_ms") {
                let ms = expect_pos_int(ms, "backoff_ms", mline)?;
                policy = policy.with_backoff(Duration::from_millis(ms as u64));
            }
            Ok(policy)
        }
        other => Err(err(
            aline,
            format!("bad action {other:?} (abort, degrade, or restart)"),
        )),
    }
}

/// Lowers one `[[trigger]]` table to its clause (references are checked
/// once the components are planned).
fn lower_trigger(table: &RawTable, issues: &mut Vec<SpecIssue>) -> Result<Trigger, LaunchError> {
    let Some((when, wline)) = table.get("when") else {
        return Err(err(table.line, "[[trigger]] needs a when clause"));
    };
    let when = expect_str(when, "when", wline)?;
    let Some((then, tline)) = table.get("then") else {
        return Err(err(table.line, "[[trigger]] needs a then clause"));
    };
    let then = expect_str(then, "then", tline)?;
    warn_unknown(table, &["when", "then"], issues);
    let (component, signal, op, value) =
        Trigger::parse_when(&when).map_err(|detail| err(wline, detail))?;
    let action = Trigger::parse_then(&then).map_err(|detail| err(tline, detail))?;
    let mut trigger = Trigger::new(component, signal, op, value, action);
    trigger.line = table.line;
    Ok(trigger)
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
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|source| SpecLoadError::Io {
            path: path.display().to_string(),
            source,
        })?;
        Workflow::from_spec_text(&text)
    }

    /// [`Workflow::from_spec`] over in-memory spec text. Deny-level spec
    /// issues refuse the load; warn-level ones (unknown keys) do not — run
    /// `sb-lint`, or read [`WorkflowPlan::issues`], to see them.
    pub fn from_spec_text(text: &str) -> Result<Workflow, SpecLoadError> {
        let plan = WorkflowPlan::from_spec(text)
            .map_err(SpecLoadError::Parse)?
            .runnable()
            .map_err(|denied| SpecLoadError::Invalid {
                issues: denied.iter().map(LaunchError::to_string).collect(),
            })?;
        plan.workflow(StreamHub::new(), &[])
            .map_err(|detail| SpecLoadError::Invalid {
                issues: vec![detail],
            })
    }
}

/// One element of `args`/`members` (or a `program`/`group`) is one token
/// of the launch grammar, spaces and all — but never an empty one, which
/// would name a stream, array, or component `""`.
fn non_empty(tok: &str, what: &str, line: usize) -> Result<(), LaunchError> {
    if tok.is_empty() {
        return Err(err(line, format!("{what} must not be empty")));
    }
    Ok(())
}

fn expect_str(v: &SpecValue, key: &str, line: usize) -> Result<String, LaunchError> {
    match v {
        SpecValue::Str(s) => Ok(s.clone()),
        other => Err(err(
            line,
            format!("{key} must be a string, got {}", other.type_name()),
        )),
    }
}

fn expect_bool(v: &SpecValue, key: &str, line: usize) -> Result<bool, LaunchError> {
    match v {
        SpecValue::Bool(b) => Ok(*b),
        other => Err(err(
            line,
            format!("{key} must be a boolean, got {}", other.type_name()),
        )),
    }
}

fn expect_pos_int(v: &SpecValue, key: &str, line: usize) -> Result<usize, LaunchError> {
    match v {
        SpecValue::Int(n) if *n > 0 => Ok(*n as usize),
        SpecValue::Int(n) => Err(err(line, format!("{key} must be positive, got {n}"))),
        other => Err(err(
            line,
            format!("{key} must be an integer, got {}", other.type_name()),
        )),
    }
}

fn expect_list(v: &SpecValue, key: &str, line: usize) -> Result<Vec<String>, LaunchError> {
    match v {
        SpecValue::List(items) => Ok(items.clone()),
        other => Err(err(
            line,
            format!("{key} must be a list, got {}", other.type_name()),
        )),
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

/// Parses the TOML subset into raw tables with per-key line numbers.
fn parse_tables(text: &str) -> Result<Vec<RawTable>, LaunchError> {
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

fn parse_path(header: &str, line: usize) -> Result<Vec<String>, LaunchError> {
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

fn parse_value(tok: &str, line: usize) -> Result<SpecValue, LaunchError> {
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

fn parse_scalar(tok: &str, line: usize) -> Result<SpecValue, LaunchError> {
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
    use crate::component::StreamArray;
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
        let spec = WorkflowPlan::from_spec(SPEC).unwrap();
        assert_eq!(spec.name.as_deref(), Some("demo"));
        assert!(spec.issues.is_empty(), "{:?}", spec.issues);
        assert_eq!(spec.components.len(), 3);
        // Entries carry the line of their [[component]] header.
        let gromacs = &spec.components[0].entry;
        assert_eq!(gromacs.line, 16);
        assert_eq!(gromacs.nranks, 2);
        assert!(matches!(gromacs.program, Program::Simulation { .. }));
        assert!(matches!(
            spec.components[2].entry.program,
            Program::Histogram { num_bins: 8, .. }
        ));
        assert_eq!(
            spec.directives.transport.as_deref(),
            Some("tcp://127.0.0.1:7654")
        );
        // The transport carries the line of its url key, policies and
        // processes the line of their table header.
        assert_eq!(
            spec.directives.transports,
            [("tcp://127.0.0.1:7654".to_string(), 7)]
        );
        assert_eq!(spec.directives.policies.len(), 1);
        assert_eq!(spec.directives.policies[0].label, "gromacs");
        assert_eq!(spec.directives.policies[0].line, 31);
        assert_eq!(spec.directives.processes[0].line, 36);
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
        assert_eq!(spec.triggers[0].line, 42);
    }

    #[test]
    fn component_options_become_launch_options() {
        let spec = WorkflowPlan::from_spec(
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
        let e = &spec.components[0].entry;
        assert_eq!(e.nranks, 1, "ranks defaults to 1");
        assert_eq!(e.options["group"], "smooth");
        assert_eq!(e.options["queue"], "4");
        assert_eq!(e.options["rendezvous"], "1");
        assert_eq!(e.options["groups"], "2");
        assert_eq!(e.options["stride"], "3");

        // On a simulation the same keys are program parameters, exactly
        // where the launch grammar puts a simulation line's key=value.
        let spec =
            WorkflowPlan::from_spec("[[component]]\nprogram = \"gromacs\"\nqueue = 4\n").unwrap();
        let e = &spec.components[0].entry;
        assert!(e.options.is_empty(), "{e:?}");
        assert!(
            matches!(&e.program, Program::Simulation { params, .. } if params["queue"] == "4"),
            "{e:?}"
        );
    }

    /// One `args` element is one token, whatever it holds: nothing
    /// re-tokenises it, so whitespace neither splits an argument nor needs
    /// rejecting.
    #[test]
    fn args_elements_are_single_tokens() {
        let spec = WorkflowPlan::from_spec(
            "[[component]]\nprogram = \"histogram\"\nargs = [\"my stream.fp\", \"x y\", \"4\", \"/tmp/out dir/h.txt\"]\n",
        )
        .unwrap();
        assert_eq!(
            spec.components[0].entry.program,
            Program::Histogram {
                input: StreamArray::new("my stream.fp", "x y"),
                num_bins: 4,
                output_file: Some("/tmp/out dir/h.txt".into()),
            }
        );
        // A program name is a token too: one with a space names no program.
        let e = WorkflowPlan::from_spec("[[component]]\nprogram = \"histo gram\"\n").unwrap_err();
        assert_eq!(e[0].line, 1);
        assert!(e[0].detail.contains("unknown program"), "{e:?}");
    }

    #[test]
    fn unknown_keys_warn_but_compile() {
        let spec = WorkflowPlan::from_spec(
            "[workflow]\nname = \"x\"\ncolor = \"red\"\n\n[[component]]\nprogram = \"histogram\"\nargs = [\"a.fp\", \"x\", \"4\"]\nfrobnicate = 9\n",
        )
        .unwrap();
        assert_eq!(spec.issues.len(), 2, "{:?}", spec.issues);
        assert!(matches!(
            &spec.issues[0],
            SpecIssue::UnknownKey { key, line: 3, .. } if key == "color"
        ));
        assert!(!spec.issues[0].is_deny());
        assert_eq!(spec.components.len(), 1);
    }

    #[test]
    fn unknown_table_warns() {
        let spec = WorkflowPlan::from_spec("[teleport]\nurl = \"tcp://h:1\"\n").unwrap();
        assert!(matches!(
            &spec.issues[0],
            SpecIssue::UnknownKey { key, .. } if key == "[teleport]"
        ));
    }

    #[test]
    fn undeclared_trigger_refs_are_deny() {
        let spec = WorkflowPlan::from_spec(
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
        let spec = WorkflowPlan::from_spec(
            "[transport]\nurl = \"tcp://h:1\"\n\n[transport]\nurl = \"tcp://h:2\"\n",
        )
        .unwrap();
        assert!(matches!(
            spec.issues[0],
            SpecIssue::Conflict { line: 4, .. }
        ));
        // Component in two process groups.
        let spec = WorkflowPlan::from_spec(
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
        let spec = WorkflowPlan::from_spec("[policy.h]\naction = \"degrade\"\nmax_restarts = 3\n")
            .unwrap();
        assert!(matches!(
            &spec.issues[0],
            SpecIssue::Conflict { line: 3, .. }
        ));
    }

    #[test]
    fn grammar_errors_carry_spec_lines() {
        // Bad positional args surface through the launch grammar at the
        // [[component]] header's line.
        let e = WorkflowPlan::from_spec(
            "\n\n[[component]]\nprogram = \"histogram\"\nargs = [\"a.fp\", \"x\", \"lots\"]\n",
        )
        .unwrap_err();
        assert_eq!(e[0].line, 3);
        assert!(e[0].detail.contains("num-bins"), "{e:?}");
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
            // A token may hold spaces, never nothing.
            ("[process.p]\nmembers = [\"a\", \"\"]", 2),
            ("[[component]]\nprogram = \"\"", 2),
            (
                "[[component]]\nprogram = \"histogram\"\nargs = [\"\", \"\", \"4\"]",
                3,
            ),
            (
                "[[component]]\nprogram = \"magnitude\"\nargs = [\"a\", \"x\", \"b\", \"y\"]\ngroup = \"\"",
                4,
            ),
            ("[[trigger]]\nwhen = \"a.b > 1\"", 1),
            ("[transport]\nprotocol = \"v3\"", 2),
            // protocol = "shm" pins the declared url to the shm:// scheme.
            ("[transport]\nurl = \"tcp://h:1\"\nprotocol = \"shm\"", 3),
            ("[transport]\nprotocol = \"shm\"", 2),
        ] {
            let e = WorkflowPlan::from_spec(text).unwrap_err();
            assert_eq!(e.len(), 1, "{text:?} -> {e:?}");
            assert_eq!(e[0].line, line, "{text:?} -> {e:?}");
        }
    }

    #[test]
    fn transport_protocol_shm_accepts_shm_url() {
        let spec = WorkflowPlan::from_spec(
            "[transport]\nurl = \"shm:///tmp/sb-rings\"\nprotocol = \"shm\"\n",
        )
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
        let spec = WorkflowPlan::from_spec(
            "[workflow] # trailing comment\nname = \"has # hash\" # another\n",
        )
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
    fn warn_level_issues_load_but_stay_on_the_plan() {
        let text = "[[component]]\nprogram = \"histogram\"\nargs = [\"a.fp\", \"x\", \"4\"]\nfrobnicate = 1\n";
        assert!(Workflow::from_spec_text(text).is_ok());
        let plan = WorkflowPlan::load("warn.sbw", text).unwrap();
        assert_eq!(plan.issues.len(), 1);
        assert!(plan.issues[0].to_string().contains("frobnicate"));
    }

    #[test]
    fn policy_action_conflict_checks() {
        let spec =
            WorkflowPlan::from_spec("[policy.h]\naction = \"abort\"\nbackoff_ms = 10\n").unwrap();
        assert!(matches!(&spec.issues[0], SpecIssue::Conflict { .. }));
        assert_eq!(
            WorkflowPlan::from_spec("[policy.h]\naction = \"restart\"\nmax_restarts = 1\n")
                .unwrap()
                .directives
                .policies[0]
                .policy
                .action,
            FailureAction::Restart
        );
    }
}
