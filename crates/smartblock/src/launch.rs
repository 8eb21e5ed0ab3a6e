//! The launch description (paper Figs. 1–3 and 8): its typed vocabulary,
//! the per-entry grammar, and the `.sb` importer.
//!
//! The paper assembles workflows as job scripts: every line launches one
//! component with a process count and run-time arguments, all backgrounded
//! and `wait`ed together:
//!
//! ```text
//! aprun -n 64  histogram velos.fp velocities 16 &
//! aprun -n 256 magnitude lmpselect.fp lmpsel velos.fp velocities &
//! aprun -n 256 select dump.custom.fp atoms 1 lmpselect.fp lmpsel vx vy vz &
//! aprun -n 1024 lammps < in.cracksm &
//! wait
//! ```
//!
//! `LaunchEntry::tokenise` reads one such invocation — program name,
//! process count, argument tokens — into a [`LaunchEntry`] without knowing
//! any program, and [`LaunchEntry::build`] holds one arm per program that
//! turns those tokens into its component. [`WorkflowPlan::from_script`]
//! imports a whole script — the aprun lines plus `#@` directive comments —
//! by tokenising each line, and lowers it to one [`WorkflowPlan`].
//!
//! The directives say what a workflow needs beyond its launch lines, one
//! line each; old parsers skip them as comments:
//!
//! ```text
//! #@ transport tcp://127.0.0.1:7654            (or shm://DIR)
//! #@ policy gromacs restart:2:50               (abort | degrade | restart:N[:MS])
//! #@ process viz magnitude,histogram
//! #@ trigger when histogram.max > 100 then set_output_stride temporal-mean 4
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::RangeInclusive;
use std::time::Duration;

use sb_stream::WriterOptions;

use crate::component::{Component, StreamArray};
use crate::plan::{plan_components, WorkflowPlan};
use crate::supervisor::FaultPolicy;
use crate::triggers::Trigger;
use crate::workflows::Simulation;
use crate::{
    AllInOne, BinaryOp, Combine, DimReduce, FileRead, FileWrite, Fork, Histogram, Magnitude,
    Predicate, Select, TemporalMean, Threshold,
};

/// Why one line of a `.sb` launch script does not lower to a
/// [`WorkflowPlan`]: a syntax error, a bad argument, or a component that
/// rejects its arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for LaunchError {}

/// Which simulation code a script line launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimCode {
    /// The mini-LAMMPS crack driver.
    Lammps,
    /// The mini-GTCP torus driver.
    Gtcp,
    /// The mini-GROMACS chain driver.
    Gromacs,
}

impl SimCode {
    /// The program name a script line launches the code by.
    pub fn name(self) -> &'static str {
        match self {
            SimCode::Lammps => "lammps",
            SimCode::Gtcp => "gtcp",
            SimCode::Gromacs => "gromacs",
        }
    }

    /// The parameters [`Simulation::try_param`] takes for this code:
    /// `steps`, `interval` and `seed` for all, then the code's own three.
    pub fn params(self) -> &'static [&'static str] {
        match self {
            SimCode::Lammps => &["steps", "interval", "seed", "nx", "ny", "thermostat"],
            SimCode::Gtcp => &["steps", "interval", "seed", "slices", "points", "zonal"],
            SimCode::Gromacs => &["steps", "interval", "seed", "chains", "len", "angle"],
        }
    }

    /// The conventional output stream of each code.
    pub fn default_stream(self) -> &'static str {
        match self {
            SimCode::Lammps => "dump.custom.fp",
            SimCode::Gtcp => "gtcp.fp",
            SimCode::Gromacs => "gromacs.fp",
        }
    }
}

/// One program invocation of a launch script, as tokens: what a `.sb` line
/// says, before any program reads it. [`LaunchEntry::build`] is the one
/// place the tokens meet a component.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchEntry {
    /// Process count from `-n`.
    pub nranks: usize,
    /// The program name.
    pub program: String,
    /// The positional argument tokens, in order.
    pub args: Vec<String>,
    /// Every `key=value` token: a component's launch options (`queue=N`
    /// writer queue depth, `rendezvous=1` synchronous hand-off, ...), a
    /// simulation's parameters.
    pub options: BTreeMap<String, String>,
    /// The `< file` operand, if present (recorded, not read).
    pub stdin: Option<String>,
    /// 1-based script line of the invocation, threaded into lint
    /// diagnostics.
    pub line: usize,
}

/// The fault policy the workflow applies to one component: a
/// `#@ policy LABEL abort|degrade|restart:N[:BACKOFF_MS]` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyDirective {
    /// The component label the policy targets.
    pub label: String,
    /// The parsed policy.
    pub policy: FaultPolicy,
    /// 1-based source line of the directive.
    pub line: usize,
}

/// One process of a distributed deployment and the component labels
/// assigned to it: a `#@ process NAME member[,member...]` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessDirective {
    /// Process name (the `--only` selection key).
    pub name: String,
    /// Component labels assigned to this process.
    pub members: Vec<String>,
    /// 1-based source line of the directive.
    pub line: usize,
}

/// Workflow-level directives: the `#@ transport`, `#@ policy` and
/// `#@ process` comment lines of a `.sb` script (invisible to the per-line
/// grammar; old parsers skip them as comments). `#@ trigger` lines lower to
/// [`WorkflowPlan::triggers`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScriptDirectives {
    /// `#@ transport tcp://host:port` — the broker endpoint a multi-process
    /// deployment of this workflow rendezvouses on. `sb-run` uses it as the
    /// default for `--serve`/`--connect`; `sb-lint` validates it. When a
    /// script declares several transports, this keeps the first.
    pub transport: Option<String>,
    /// Every transport declaration with its source line, in order (the
    /// transport pass flags colliding endpoints).
    pub transports: Vec<(String, usize)>,
    /// Policy directives, in source order.
    pub policies: Vec<PolicyDirective>,
    /// Process directives, in source order.
    pub processes: Vec<ProcessDirective>,
}

/// Parses the policy spec of a `#@ policy` directive (also used by
/// trigger clauses): `abort`, `degrade`, or `restart:N[:BACKOFF_MS]`.
pub(crate) fn parse_policy_spec(spec: &str) -> Result<FaultPolicy, String> {
    match spec {
        "abort" => return Ok(FaultPolicy::abort()),
        "degrade" => return Ok(FaultPolicy::degrade()),
        _ => {}
    }
    let usage = || format!("bad policy {spec:?} (abort, degrade, or restart:N[:BACKOFF_MS])");
    let mut parts = spec.split(':');
    if parts.next() != Some("restart") {
        return Err(usage());
    }
    let n: u32 = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(usage)?;
    let mut policy = FaultPolicy::restart(n);
    if let Some(ms) = parts.next() {
        let ms: u64 = ms.parse().map_err(|_| usage())?;
        policy = policy.with_backoff(Duration::from_millis(ms));
    }
    if parts.next().is_some() {
        return Err(usage());
    }
    Ok(policy)
}

/// Syntactic check of a transport URL — `tcp://host:port` or `shm://DIR`
/// (no DNS lookup or filesystem probe, so lint can run offline); returns
/// the reason when the URL is malformed. Actual resolution happens at
/// connect time in `sb_stream::tcp` / `sb_stream::shm`.
pub fn validate_transport_url(url: &str) -> Result<(), String> {
    if let Some(dir) = url.strip_prefix("shm://") {
        if dir.is_empty() {
            return Err(format!(
                "transport URL {url:?} needs a rendezvous directory after shm://"
            ));
        }
        return Ok(());
    }
    let rest = url
        .strip_prefix("tcp://")
        .ok_or_else(|| format!("transport URL {url:?} must start with tcp:// or shm://"))?;
    let (host, port) = rest
        .rsplit_once(':')
        .ok_or_else(|| format!("transport URL {url:?} needs a host:port"))?;
    if host.is_empty() {
        return Err(format!("transport URL {url:?} has an empty host"));
    }
    match port.parse::<u16>() {
        Ok(_) => Ok(()),
        Err(_) => Err(format!(
            "transport URL {url:?} has an invalid port {port:?}"
        )),
    }
}

pub(crate) fn err(line: usize, detail: impl Into<String>) -> LaunchError {
    LaunchError {
        line,
        detail: detail.into(),
    }
}

fn parse_usize(tok: &str, what: &str, line: usize) -> Result<usize, LaunchError> {
    tok.parse()
        .map_err(|_| err(line, format!("{what} must be an integer, got {tok:?}")))
}

impl WorkflowPlan {
    /// Imports an aprun-style `.sb` launch script — the paper's Fig. 8
    /// grammar plus `#@` directive comments — as a plan. A line that does
    /// not tokenise (a bad `-n`, a missing program, a dangling `<`) or a
    /// malformed directive (unknown key, missing value, bad transport URL,
    /// a trigger clause that does not parse) stops the import at that
    /// line; otherwise every entry a program refuses is reported, each on
    /// its own line. So linted scripts are deployable as written; `wait`,
    /// comments and blank lines are skipped.
    pub fn from_script(text: &str) -> Result<WorkflowPlan, Vec<LaunchError>> {
        let (entries, directives, triggers) = import_script(text).map_err(|e| vec![e])?;
        Ok(WorkflowPlan {
            components: plan_components(entries)?,
            directives,
            triggers,
        })
    }
}

/// Parses the body of a `#@ trigger when <component>.<signal> <op> <value>
/// then <action>` directive (the tokens after `trigger`) with
/// [`Trigger::parse_when`] and [`Trigger::parse_then`].
fn parse_trigger(toks: &[&str], line: usize) -> Result<Trigger, LaunchError> {
    let usage = "usage: #@ trigger when COMPONENT.SIGNAL OP VALUE then ACTION";
    let (Some(&"when"), Some(then)) = (toks.first(), toks.iter().position(|t| *t == "then")) else {
        return Err(err(line, usage));
    };
    let when = toks[1..then].join(" ");
    let (component, signal, op, value) =
        Trigger::parse_when(&when).map_err(|detail| err(line, detail))?;
    let action = Trigger::parse_then(&toks[then + 1..].join(" ")).map_err(|d| err(line, d))?;
    let mut trigger = Trigger::new(component, signal, op, value, action);
    trigger.line = line;
    Ok(trigger)
}

/// Tokenises script lines into launch entries, `#@` directives and
/// `#@ trigger` clauses.
fn import_script(
    text: &str,
) -> Result<(Vec<LaunchEntry>, ScriptDirectives, Vec<Trigger>), LaunchError> {
    let mut entries = Vec::new();
    let mut directives = ScriptDirectives::default();
    let mut triggers = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let mut s = raw.trim();
        if let Some(directive) = s.strip_prefix("#@") {
            let mut toks = directive.split_whitespace();
            match toks.next() {
                Some("transport") => {
                    let (Some(url), None) = (toks.next(), toks.next()) else {
                        return Err(err(line, "usage: #@ transport tcp://host:port | shm://DIR"));
                    };
                    validate_transport_url(url).map_err(|detail| err(line, detail))?;
                    if directives.transport.is_none() {
                        directives.transport = Some(url.to_string());
                    }
                    directives.transports.push((url.to_string(), line));
                }
                Some("policy") => {
                    let (Some(label), Some(spec), None) = (toks.next(), toks.next(), toks.next())
                    else {
                        return Err(err(
                            line,
                            "usage: #@ policy LABEL abort|degrade|restart:N[:BACKOFF_MS]",
                        ));
                    };
                    let policy = parse_policy_spec(spec).map_err(|detail| err(line, detail))?;
                    directives.policies.push(PolicyDirective {
                        label: label.to_string(),
                        policy,
                        line,
                    });
                }
                Some("process") => {
                    let Some(name) = toks.next() else {
                        return Err(err(line, "usage: #@ process NAME member[,member...]"));
                    };
                    let members: Vec<String> = toks
                        .collect::<Vec<&str>>()
                        .join(",")
                        .split(',')
                        .filter(|m| !m.is_empty())
                        .map(|m| m.to_string())
                        .collect();
                    if members.is_empty() {
                        return Err(err(line, "usage: #@ process NAME member[,member...]"));
                    }
                    directives.processes.push(ProcessDirective {
                        name: name.to_string(),
                        members,
                        line,
                    });
                }
                Some("trigger") => {
                    triggers.push(parse_trigger(&toks.collect::<Vec<_>>(), line)?);
                }
                Some(other) => {
                    return Err(err(line, format!("unknown directive {other:?}")));
                }
                None => return Err(err(line, "empty #@ directive")),
            }
            continue;
        }
        if s.is_empty() || s.starts_with('#') || s == "wait" {
            continue;
        }
        if let Some(stripped) = s.strip_suffix('&') {
            s = stripped.trim_end();
        }
        let mut tokens: Vec<&str> = s.split_whitespace().collect();

        // Optional `aprun` prefix and mandatory-if-present `-n N`.
        if tokens.first() == Some(&"aprun") {
            tokens.remove(0);
        }
        let mut nranks = 1usize;
        if tokens.first() == Some(&"-n") {
            tokens.remove(0);
            if tokens.is_empty() {
                return Err(err(line, "-n needs a process count"));
            }
            nranks = parse_usize(tokens.remove(0), "process count", line)?;
            if nranks == 0 {
                return Err(err(line, "process count must be positive"));
            }
        }
        if tokens.is_empty() {
            return Err(err(line, "missing program name"));
        }
        let program = tokens.remove(0);
        entries.push(LaunchEntry::tokenise(nranks, program, &tokens, line)?);
    }
    Ok((entries, directives, triggers))
}

/// A positional count no program bounds.
const MANY: usize = usize::MAX;

impl LaunchEntry {
    /// Tokenises one program invocation: `program` launched on `nranks`
    /// processes with `args`, each one token — a positional, a `key=value`
    /// option, or an `< file` redirect. `line` is the invocation's script
    /// line. Nothing here knows any program.
    pub(crate) fn tokenise(
        nranks: usize,
        program: &str,
        args: &[&str],
        line: usize,
    ) -> Result<LaunchEntry, LaunchError> {
        let mut entry = LaunchEntry {
            nranks,
            program: program.to_string(),
            args: Vec::new(),
            options: BTreeMap::new(),
            stdin: None,
            line,
        };
        let mut tokens = args.iter();
        while let Some(&token) = tokens.next() {
            if token == "<" {
                let file = tokens
                    .next()
                    .ok_or_else(|| err(line, "'<' needs a file operand"))?;
                entry.stdin = Some(file.to_string());
            } else if let Some((key, value)) = token.split_once('=') {
                entry.options.insert(key.to_string(), value.to_string());
            } else {
                entry.args.push(token.to_string());
            }
        }
        Ok(entry)
    }

    /// Builds the component this entry launches, with the writer policy of
    /// its outputs: one arm per program reads its positional arguments,
    /// calls its constructor and applies the options it honours; then, for
    /// every component that writes a stream, `queue=` and `rendezvous=`
    /// give the policy (`None` for one that writes nothing, whose line
    /// takes neither). Whatever is wrong with the entry — an argument count
    /// off the program's usage, a token that does not parse, a
    /// constructor's refusal, an option or `< file` the program does not
    /// take — is one error on the entry's line. A simulation's options are
    /// `stream=`, `queue=`, `rendezvous=` and its code's
    /// [`SimCode::params`].
    pub fn build(&self) -> Result<(Box<dyn Component>, Option<WriterOptions>), LaunchError> {
        let line = self.line;
        let a: Vec<&str> = self.args.iter().map(String::as_str).collect();
        let arity = |count: RangeInclusive<usize>, usage: &str| {
            if count.contains(&a.len()) {
                Ok(())
            } else {
                Err(err(line, format!("usage: {usage}")))
            }
        };
        let io = |i: usize| StreamArray::new(a[i], a[i + 1]);
        let rejected =
            |reason: String| err(line, format!("component rejected its arguments: {reason}"));
        let mut opts = Options {
            given: &self.options,
            read: BTreeSet::new(),
        };
        let component: Box<dyn Component> = match self.program.as_str() {
            "select" => {
                arity(
                    5..=MANY,
                    "select in-stream in-array dim-index out-stream out-array names...",
                )?;
                let dim = parse_usize(a[2], "dimension index", line)?;
                Box::new(Select::new(io(0), dim, a[5..].iter().copied(), io(3)))
            }
            "magnitude" => {
                arity(4..=4, "magnitude in-stream in-array out-stream out-array")?;
                Box::new(Magnitude::new(io(0), io(2)))
            }
            "dim-reduce" => {
                arity(
                    6..=6,
                    "dim-reduce in-stream in-array remove grow out-stream out-array",
                )?;
                let remove = parse_usize(a[2], "dim-to-remove", line)?;
                let grow = parse_usize(a[3], "dim-to-grow", line)?;
                Box::new(DimReduce::new(io(0), remove, grow, io(4)))
            }
            "histogram" => {
                arity(3..=4, "histogram in-stream in-array num-bins [output-file]")?;
                let bins = parse_usize(a[2], "num-bins", line)?;
                let mut c = Histogram::try_new(io(0), bins).map_err(rejected)?;
                if let Some(&path) = a.get(3) {
                    c = c.with_output_file(path);
                }
                Box::new(c)
            }
            "threshold" => {
                arity(
                    6..=6,
                    "threshold in-stream in-array mode value out-stream out-array",
                )?;
                let value: f64 = a[3].parse().map_err(|_| {
                    err(
                        line,
                        format!("threshold value must be a number, got {:?}", a[3]),
                    )
                })?;
                let predicate = Predicate::parse(a[2], value).ok_or_else(|| {
                    err(
                        line,
                        format!("unknown threshold mode {:?} (gt|lt|abs-gt)", a[2]),
                    )
                })?;
                Box::new(Threshold::new(io(0), predicate, io(4)))
            }
            "combine" => {
                arity(
                    7..=7,
                    "combine left-stream left-array op right-stream right-array out-stream out-array",
                )?;
                let op = BinaryOp::parse(a[2]).ok_or_else(|| {
                    err(
                        line,
                        format!("unknown combine op {:?} (add|sub|mul|div)", a[2]),
                    )
                })?;
                Box::new(Combine::new(io(0), op, io(3), io(5)))
            }
            "temporal-mean" => {
                arity(
                    5..=5,
                    "temporal-mean in-stream in-array window out-stream out-array",
                )?;
                let window = parse_usize(a[2], "window", line)?;
                let mut c = TemporalMean::try_new(io(0), window, io(3)).map_err(rejected)?;
                if let Some(stride) = opts.usize("stride").map_err(rejected)? {
                    c = c.try_with_stride(stride).map_err(rejected)?;
                }
                Box::new(c)
            }
            "fork" => {
                arity(2..=MANY, "fork in-stream out-stream...")?;
                Box::new(Fork::new(a[0], a[1..].iter().copied()))
            }
            "aio" => {
                arity(4..=MANY, "aio in-stream in-array num-bins names...")?;
                let bins = parse_usize(a[2], "num-bins", line)?;
                Box::new(AllInOne::try_new(io(0), a[3..].iter().copied(), bins).map_err(rejected)?)
            }
            "file-write" => {
                arity(2..=2, "file-write in-stream path")?;
                Box::new(FileWrite::new(a[0], a[1]))
            }
            "file-read" => {
                arity(2..=2, "file-read path out-stream")?;
                Box::new(FileRead::new(a[0], a[1]))
            }
            "lammps" | "gtcp" | "gromacs" => {
                if let Some(t) = a.first() {
                    return Err(err(
                        line,
                        format!("simulation arguments must be key=value, got {t:?}"),
                    ));
                }
                let code = match self.program.as_str() {
                    "lammps" => SimCode::Lammps,
                    "gtcp" => SimCode::Gtcp,
                    _ => SimCode::Gromacs,
                };
                let mut sim = Simulation::new(code);
                if let Some(stream) = opts.take("stream") {
                    sim.stream = stream.to_string();
                }
                for &key in code.params() {
                    if let Some(value) = opts.take(key) {
                        sim = sim.try_param(key, value).map_err(rejected)?;
                    }
                }
                Box::new(sim)
            }
            other => return Err(err(line, format!("unknown program {other:?}"))),
        };
        let writer_options = if component.output_streams().is_empty() {
            None
        } else {
            Some(opts.writer().map_err(rejected)?)
        };
        opts.all_read(&self.program).map_err(rejected)?;
        // `< file` is a simulation's input deck (the paper's
        // `lammps < in.cracksm`): recorded, not read.
        let simulation = matches!(self.program.as_str(), "lammps" | "gtcp" | "gromacs");
        if let (Some(file), false) = (&self.stdin, simulation) {
            return Err(rejected(format!(
                "{} reads no '<' input, got {file:?}",
                self.program
            )));
        }
        Ok((component, writer_options))
    }
}

/// An entry's options as its program's arm reads them: every key an arm
/// asks for is one the program honours, and a key no arm asked for is
/// refused by [`Options::all_read`].
struct Options<'a> {
    given: &'a BTreeMap<String, String>,
    read: BTreeSet<&'static str>,
}

impl<'a> Options<'a> {
    /// The value of option `key`, when given.
    fn take(&mut self, key: &'static str) -> Option<&'a str> {
        self.read.insert(key);
        self.given.get(key).map(String::as_str)
    }

    /// The integer option `key`, when given.
    fn usize(&mut self, key: &'static str) -> Result<Option<usize>, String> {
        self.take(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{key}={v:?} is not an integer"))
            })
            .transpose()
    }

    /// The output's writer policy: `queue=` a depth, or `rendezvous=1`,
    /// which buffers no second step and so takes no depth; else the
    /// default.
    fn writer(&mut self) -> Result<WriterOptions, String> {
        let queue = self.usize("queue")?;
        let rendezvous = match self.take("rendezvous") {
            None | Some("0" | "false") => false,
            Some("1" | "true") => true,
            Some(r) => return Err(format!("rendezvous={r:?} is not 0, 1, true or false")),
        };
        match (queue, rendezvous) {
            (Some(q), true) => Err(format!(
                "queue={q} with rendezvous=1: a rendezvous writer buffers no second step, \
                 so it takes no queue depth"
            )),
            (Some(q), false) => WriterOptions::try_buffered(q),
            (None, true) => Ok(WriterOptions::rendezvous()),
            (None, false) => Ok(WriterOptions::default()),
        }
    }

    /// Refuses the first given option `program`'s arm never read.
    fn all_read(&self, program: &str) -> Result<(), String> {
        let Some(key) = self.given.keys().find(|k| !self.read.contains(k.as_str())) else {
            return Ok(());
        };
        let honoured: Vec<String> = self.read.iter().map(|k| format!("{k}=")).collect();
        let honoured = if honoured.is_empty() {
            "none".to_string()
        } else {
            honoured.join(" ")
        };
        Err(format!(
            "{program} takes no option {key}= (its options: {honoured})"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::plan::PlannedComponent;

    fn strings(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    fn options(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// What a built component declares to the wiring: its label, the
    /// `(stream, group)` subscriptions it makes under that label, and its
    /// output streams.
    type Wiring = (String, Vec<(String, String)>, Vec<String>);

    fn wiring(c: &dyn Component) -> Wiring {
        let label = c.label();
        let subscribed = crate::component::subscriptions(&label, c);
        (label, subscribed, c.output_streams())
    }

    fn sub(stream: &str, group: &str) -> (String, String) {
        (stream.to_string(), group.to_string())
    }

    /// The program names `LaunchEntry::build` has an arm for, read off its
    /// source.
    fn grammar_names() -> BTreeSet<&'static str> {
        let source = include_str!("launch.rs");
        let start = source
            .find("let component: Box<dyn Component> = match self.program.as_str() {")
            .unwrap();
        let end = start + source[start..].find("other => return Err").unwrap();
        source[start..end]
            .lines()
            .filter_map(|l| l.trim().strip_suffix("=> {"))
            .flat_map(|arm| arm.split('|'))
            .map(|name| name.trim().trim_matches('"'))
            .collect()
    }

    /// The paper's Fig. 8 script, verbatim in structure.
    const FIG8: &str = r#"
        aprun -n 64 histogram velos.fp velocities 16 &
        aprun -n 256 magnitude lmpselect.fp lmpsel velos.fp velocities &
        aprun -n 256 select dump.custom.fp atoms 1 lmpselect.fp lmpsel vx vy vz &
        aprun -n 1024 lammps < in.cracksm &
        wait
    "#;

    #[test]
    fn parses_the_papers_fig8_script() {
        let plan = WorkflowPlan::from_script(FIG8).unwrap();
        let c = &plan.components;
        assert_eq!(c.len(), 4);
        let ranks: Vec<usize> = c.iter().map(|c| c.entry.nranks).collect();
        assert_eq!(ranks, [64, 256, 256, 1024]);
        assert_eq!(c[0].entry.program, "histogram");
        assert_eq!(c[0].entry.args, strings(&["velos.fp", "velocities", "16"]));
        assert_eq!(c[1].entry.program, "magnitude");
        assert_eq!(
            c[1].entry.args,
            strings(&["lmpselect.fp", "lmpsel", "velos.fp", "velocities"])
        );
        assert_eq!(c[2].entry.program, "select");
        assert_eq!(
            c[2].entry.args,
            strings(&[
                "dump.custom.fp",
                "atoms",
                "1",
                "lmpselect.fp",
                "lmpsel",
                "vx",
                "vy",
                "vz"
            ])
        );
        assert_eq!(c[3].entry.program, "lammps");
        assert!(c[3].entry.args.is_empty() && c[3].entry.options.is_empty());
        assert_eq!(c[3].entry.stdin.as_deref(), Some("in.cracksm"));
        assert!(c
            .iter()
            .all(|c| c.entry.stdin.is_none() || c.label == "lammps"));

        // The built components wire the paper's pipeline.
        let wired: Vec<Wiring> = c.iter().map(|c| wiring(&*c.component)).collect();
        assert_eq!(
            wired,
            [
                (
                    "histogram".into(),
                    vec![sub("velos.fp", "histogram")],
                    vec![]
                ),
                (
                    "magnitude".into(),
                    vec![sub("lmpselect.fp", "magnitude")],
                    strings(&["velos.fp"])
                ),
                (
                    "select".into(),
                    vec![sub("dump.custom.fp", "select")],
                    strings(&["lmpselect.fp"])
                ),
                ("lammps".into(), vec![], strings(&["dump.custom.fp"])),
            ]
        );
    }

    #[test]
    fn parses_the_gtcp_pipeline() {
        let script = r#"
            # GTCP pressure histogram, Fig. 6
            aprun -n 4 gtcp slices=16 points=32 steps=3 &
            aprun -n 3 select gtcp.fp plasma 2 psel.fp pperp P_perp &
            aprun -n 2 dim-reduce psel.fp pperp 2 1 dr1.fp flat2 &
            aprun -n 2 dim-reduce dr1.fp flat2 0 1 dr2.fp flat1 &
            aprun -n 1 histogram dr2.fp flat1 20 /tmp/h.txt &
            wait
        "#;
        let plan = WorkflowPlan::from_script(script).unwrap();
        let c = &plan.components;
        assert_eq!(c.len(), 5);
        // A simulation's key=value tokens are its options, and its
        // parameters.
        assert_eq!(c[0].entry.program, "gtcp");
        assert_eq!(
            c[0].entry.options,
            options(&[("slices", "16"), ("points", "32"), ("steps", "3")])
        );
        assert!(c[0].entry.args.is_empty() && c[0].entry.stdin.is_none());
        assert_eq!(c[0].component.output_streams(), ["gtcp.fp"]);
        assert_eq!(
            c[4].entry.args,
            strings(&["dr2.fp", "flat1", "20", "/tmp/h.txt"])
        );
        let labels: Vec<&str> = c.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            ["gtcp", "select", "dim-reduce", "dim-reduce-2", "histogram"]
        );
        assert_eq!(c[3].component.output_streams(), ["dr2.fp"]);
    }

    #[test]
    fn parses_extension_components() {
        let script = r#"
            fork in.fp a.fp b.fp
            threshold a.fp x gt 1.5 th.fp y
            file-write b.fp /tmp/out.sbc
            file-read /tmp/out.sbc replay.fp
            aio dump.fp atoms 16 vx vy vz
        "#;
        let plan = WorkflowPlan::from_script(script).unwrap();
        let c = &plan.components;
        // Bare lines default to one rank.
        assert!(c.iter().all(|c| c.entry.nranks == 1));
        let programs: Vec<&str> = c.iter().map(|c| c.entry.program.as_str()).collect();
        assert_eq!(
            programs,
            ["fork", "threshold", "file-write", "file-read", "aio"]
        );
        assert_eq!(c[0].component.output_streams(), ["a.fp", "b.fp"]);
        assert_eq!(wiring(&*c[2].component).1, [sub("b.fp", "file-write")]);
        assert_eq!(c[3].component.output_streams(), ["replay.fp"]);
        assert_eq!(wiring(&*c[4].component).1, [sub("dump.fp", "all-in-one")]);
    }

    /// Every program from its script line: the planned component declares
    /// the expected wiring, the plan keeps the writer policy its options
    /// give (none for a line that writes nothing), and the entry rebuilds
    /// to the same.
    #[test]
    fn every_program_lowers_from_its_script_line() {
        let default = WriterOptions::default();
        let rendezvous = WriterOptions::rendezvous();
        let cases: &[(&str, Wiring, Option<WriterOptions>)] = &[
            (
                "aprun -n 2 select dump.fp atoms 1 sel.fp v vx vy vz queue=3",
                (
                    "select".into(),
                    vec![sub("dump.fp", "select")],
                    strings(&["sel.fp"]),
                ),
                Some(WriterOptions::buffered(3)),
            ),
            (
                "magnitude sel.fp v mag.fp speed rendezvous=1",
                (
                    "magnitude".into(),
                    vec![sub("sel.fp", "magnitude")],
                    strings(&["mag.fp"]),
                ),
                Some(rendezvous),
            ),
            (
                "dim-reduce a.fp x 2 1 b.fp y",
                (
                    "dim-reduce".into(),
                    vec![sub("a.fp", "dim-reduce")],
                    strings(&["b.fp"]),
                ),
                Some(default),
            ),
            (
                "histogram a.fp x 8 /tmp/h.txt",
                ("histogram".into(), vec![sub("a.fp", "histogram")], vec![]),
                None,
            ),
            (
                "threshold a.fp x abs-gt 2.5 b.fp y",
                (
                    "threshold".into(),
                    vec![sub("a.fp", "threshold")],
                    strings(&["b.fp"]),
                ),
                Some(default),
            ),
            (
                "combine a.fp x sub a.fp y c.fp z",
                (
                    "combine".into(),
                    vec![sub("a.fp", "combine"), sub("a.fp", "combine#1")],
                    strings(&["c.fp"]),
                ),
                Some(default),
            ),
            (
                "temporal-mean a.fp x 3 b.fp y stride=2",
                (
                    "temporal-mean".into(),
                    vec![sub("a.fp", "temporal-mean")],
                    strings(&["b.fp"]),
                ),
                Some(default),
            ),
            (
                "fork in.fp a.fp b.fp queue=2",
                (
                    "fork".into(),
                    vec![sub("in.fp", "fork")],
                    strings(&["a.fp", "b.fp"]),
                ),
                Some(WriterOptions::buffered(2)),
            ),
            (
                "aio dump.fp atoms 16 vx vy vz",
                (
                    "all-in-one".into(),
                    vec![sub("dump.fp", "all-in-one")],
                    vec![],
                ),
                None,
            ),
            (
                "file-write b.fp /tmp/out.sbc",
                ("file-write".into(), vec![sub("b.fp", "file-write")], vec![]),
                None,
            ),
            (
                "file-read /tmp/out.sbc replay.fp rendezvous=0",
                ("file-read".into(), vec![], strings(&["replay.fp"])),
                Some(default),
            ),
            (
                "aprun -n 4 lammps nx=8 steps=2 < in.cracksm",
                ("lammps".into(), vec![], strings(&["dump.custom.fp"])),
                Some(default),
            ),
            (
                "gtcp slices=4 queue=2",
                ("gtcp".into(), vec![], strings(&["gtcp.fp"])),
                Some(WriterOptions::buffered(2)),
            ),
            (
                "gromacs chains=2 stream=g2.fp rendezvous=1",
                ("gromacs".into(), vec![], strings(&["g2.fp"])),
                Some(rendezvous),
            ),
        ];
        let mut covered = BTreeSet::new();
        for (line, expected, policy) in cases {
            let plan = WorkflowPlan::from_script(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(plan.components.len(), 1, "{line}");
            let a: &PlannedComponent = &plan.components[0];
            assert_eq!(&wiring(&*a.component), expected, "{line}");
            assert_eq!(&a.writer_options, policy, "{line}");
            let (rebuilt, options) = a.entry.build().unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(&wiring(&*rebuilt), expected, "{line}");
            assert_eq!(&options, policy, "{line}");
            covered.insert(a.entry.program.as_str().to_owned());
        }
        let names: BTreeSet<String> = grammar_names().into_iter().map(String::from).collect();
        assert_eq!(covered, names);
        assert_eq!(names.len(), 14);
    }

    /// Whatever the tokeniser cannot read stops the import; everything a
    /// program refuses — arity, numbers, every option and `< file` it does
    /// not take — is an error on the entry's own line.
    #[test]
    fn rejects_malformed_lines() {
        for (script, what) in [
            ("aprun -n x select a b 1 c d vx", "bad nranks"),
            ("aprun -n 0 magnitude a b c d", "zero ranks"),
            ("aprun -n 2 bogus a b", "unknown program"),
            (
                "aprun -n 2 transpose a.fp x 1,0 b.fp y",
                "a program the grammar dropped",
            ),
            ("select a b", "too few args"),
            ("dim-reduce a b one 1 c d", "non-integer dim"),
            ("lammps foo", "non key=value sim arg"),
            ("aprun -n", "missing count"),
            ("lammps <", "dangling redirect"),
            ("aprun -n 2", "missing program"),
            (
                "magnitude gromacs.fp coords m.fp r EXTRA",
                "surplus positional",
            ),
            (
                "histogram a.fp r 8 /tmp/h.txt EXTRA2",
                "surplus after the output file",
            ),
            (
                "file-write b.fp /tmp/out.sbc extra",
                "surplus on file-write",
            ),
            ("magnitude gromacs.fp coords m.fp r queu=4", "option typo"),
            (
                "magnitude a b c d rendezvous=yes",
                "rendezvous not a boolean",
            ),
            ("fork m.fp a.fp b.fp group=g2", "group on fork"),
            (
                "file-write b.fp /tmp/out.sbc group=zzz",
                "group on file-write",
            ),
            (
                "file-write b.fp /tmp/out.sbc queue=4",
                "queue on file-write",
            ),
            ("histogram a.fp r 8 queue=4", "queue on histogram"),
            ("aio a.fp x 8 vx queue=4", "queue on aio"),
            ("magnitude a b c d stride=3", "stride off temporal-mean"),
            ("combine a x add b y c z stride=2", "stride on combine"),
            ("magnitude a b c d < in.txt", "input file on a component"),
            (
                "histogram a.fp r 8 group=h",
                "a reader group: labels name groups",
            ),
            (
                "combine a x add a y c z rgroup=r",
                "a right reader group: labels name groups",
            ),
            (
                "magnitude a b c d groups=2",
                "a subscriber count: the workflow counts them",
            ),
            ("gromacs nx=4", "another code's parameter"),
            ("lammps groups=2", "a retired token on a simulation"),
            ("gtcp step=3", "a parameter typo"),
            ("lammps thermostat=hot", "a thermostat that is not a number"),
            (
                "magnitude a b c d queue=4294967296",
                "a queue depth no remote writer's hello carries",
            ),
            ("gromacs queue=4294967297", "the same on a simulation"),
            ("magnitude a b c d queue=0", "a queue depth no writer runs"),
            (
                "gromacs chains=4 len=4 steps=5 interval=1 queue=3 rendezvous=1",
                "a queue depth rendezvous never fills",
            ),
            (
                "magnitude a b c d queue=1 rendezvous=true",
                "the same at depth 1",
            ),
        ] {
            let line = format!("\n# {what}\n{script}");
            match WorkflowPlan::from_script(&line) {
                Ok(_) => panic!("should reject: {what}"),
                Err(e) => assert_eq!(
                    e.iter().map(|e| e.line).collect::<Vec<_>>(),
                    [3],
                    "{what}: {e:?}"
                ),
            }
        }
        // The refusal names the option and what the program takes.
        let e = WorkflowPlan::from_script("fork m.fp a.fp group=g2").unwrap_err();
        assert_eq!(
            e[0].detail,
            "component rejected its arguments: fork takes no option group= \
             (its options: queue= rendezvous=)"
        );
        // A line that writes nothing takes no writer policy.
        let e = WorkflowPlan::from_script("file-write b.fp /tmp/out.sbc queue=4").unwrap_err();
        assert_eq!(
            e[0].detail,
            "component rejected its arguments: file-write takes no option queue= \
             (its options: none)"
        );
        let e = WorkflowPlan::from_script("fork m.fp a.fp queue=4294967297").unwrap_err();
        assert_eq!(
            e[0].detail,
            "component rejected its arguments: queue depth 4294967297 exceeds 4294967295, \
             the deepest a remote writer declares"
        );
        // Rendezvous buffers no second step: a depth beside it is refused,
        // not carried as a dead value two ranks could disagree on.
        let e = WorkflowPlan::from_script("gromacs queue=3 rendezvous=1").unwrap_err();
        assert_eq!(
            e[0].detail,
            "component rejected its arguments: queue=3 with rendezvous=1: a rendezvous \
             writer buffers no second step, so it takes no queue depth"
        );
        // A simulation names the keys its code takes, as a component does.
        let e = WorkflowPlan::from_script("gromacs nx=4").unwrap_err();
        assert_eq!(
            e[0].detail,
            "component rejected its arguments: gromacs takes no option nx= \
             (its options: angle= chains= interval= len= queue= rendezvous= seed= steps= stream=)"
        );
        // A dropped program is unknown like any other, and lints as SB000.
        let script = "aprun -n 2 transpose a.fp x 1,0 b.fp y";
        let e = WorkflowPlan::from_script(script).unwrap_err();
        assert_eq!(e[0].detail, "unknown program \"transpose\"");
        let lint = crate::lint_source("t.sb", script, &crate::LintConfig::default());
        let found: Vec<_> = lint.diagnostics.iter().map(|d| (d.id(), d.line)).collect();
        assert_eq!(found, [("SB000", Some(1))]);
        let e = WorkflowPlan::from_script("magnitude a b c d EXTRA").unwrap_err();
        assert_eq!(
            e[0].detail,
            "usage: magnitude in-stream in-array out-stream out-array"
        );
    }

    #[test]
    fn transport_directive_round_trips() {
        let script = r#"
            #@ transport tcp://127.0.0.1:7654
            # an ordinary comment
            aprun -n 1 histogram a.fp x 4 &
            wait
        "#;
        let plan = WorkflowPlan::from_script(script).unwrap();
        // Directive lines are not launch entries.
        assert_eq!(plan.components.len(), 1);
        assert_eq!(
            plan.directives.transport.as_deref(),
            Some("tcp://127.0.0.1:7654")
        );
        // Scripts without directives import to the default.
        let none = WorkflowPlan::from_script("histogram a.fp x 4").unwrap();
        assert_eq!(none.directives, ScriptDirectives::default());
    }

    #[test]
    fn policy_and_process_directives_parse_with_lines() {
        let script = r#"
            #@ policy histogram restart:2:50
            #@ policy gromacs abort
            #@ process sim gromacs
            #@ process viz magnitude,histogram
            aprun -n 1 gromacs steps=2 &
            aprun -n 1 magnitude gromacs.fp coords m.fp r &
            aprun -n 1 histogram m.fp r 4 &
            wait
        "#;
        let plan = WorkflowPlan::from_script(script).unwrap();
        let directives = &plan.directives;
        let entries: Vec<&LaunchEntry> = plan.components.iter().map(|c| &c.entry).collect();
        assert_eq!(entries.len(), 3);
        // Entries record their 1-based script line.
        assert_eq!(entries[0].line, 6);
        assert_eq!(entries[2].line, 8);
        assert_eq!(directives.policies.len(), 2);
        assert_eq!(directives.policies[0].label, "histogram");
        assert_eq!(
            directives.policies[0].policy,
            FaultPolicy::restart(2).with_backoff(Duration::from_millis(50))
        );
        assert_eq!(directives.policies[0].line, 2);
        assert_eq!(directives.policies[1].policy, FaultPolicy::abort());
        assert_eq!(directives.processes.len(), 2);
        assert_eq!(directives.processes[1].name, "viz");
        assert_eq!(directives.processes[1].members, ["magnitude", "histogram"]);
        assert_eq!(directives.processes[1].line, 5);
    }

    #[test]
    fn repeated_transports_keep_the_first_and_record_all() {
        let script = "#@ transport tcp://a:1\n#@ transport tcp://b:2\nhistogram a.fp x 4";
        let directives = WorkflowPlan::from_script(script).unwrap().directives;
        assert_eq!(directives.transport.as_deref(), Some("tcp://a:1"));
        assert_eq!(
            directives.transports,
            vec![("tcp://a:1".into(), 1), ("tcp://b:2".into(), 2)]
        );
    }

    #[test]
    fn malformed_directives_are_parse_errors() {
        for (script, what) in [
            ("#@ transport", "missing URL"),
            ("#@ transport udp://1.2.3.4:5", "wrong scheme"),
            ("#@ transport tcp://host", "missing port"),
            ("#@ transport tcp://:99", "empty host"),
            ("#@ transport tcp://h:notaport", "bad port"),
            ("#@ transport tcp://h:1 extra", "trailing token"),
            ("#@ teleport tcp://h:1", "unknown key"),
            ("#@", "empty directive"),
            ("#@ policy histogram", "missing policy spec"),
            ("#@ policy histogram retry", "unknown policy"),
            ("#@ policy histogram restart", "restart without budget"),
            ("#@ policy histogram restart:x", "non-integer budget"),
            ("#@ policy histogram restart:1:2:3", "too many fields"),
            ("#@ policy a abort extra", "trailing token on policy"),
            ("#@ process viz", "process without members"),
            ("#@ process", "process without name"),
            ("#@ trigger", "trigger without clauses"),
            (
                "#@ trigger histogram.max > 1 then snapshot_stream a b",
                "no when",
            ),
            ("#@ trigger when histogram.max > 1", "no then"),
            (
                "#@ trigger when histogram.max ~ 1 then snapshot_stream a b",
                "bad operator",
            ),
            (
                "#@ trigger when histogram.max > 1 then explode",
                "bad action",
            ),
        ] {
            assert!(
                WorkflowPlan::from_script(script).is_err(),
                "should reject: {what}"
            );
        }
    }

    /// A `#@ trigger` line lowers to the very `Trigger` that
    /// `Trigger::parse_when` / `parse_then` give for its two clauses, on
    /// its script line; a clause that does not parse is a line-attributed
    /// SB000 carrying the clause parser's reason.
    #[test]
    fn trigger_directive_lowers_through_the_clause_parsers() {
        let script = "histogram a.fp x 4 &\n\
                      #@ trigger when histogram.max >= 2.5 then set_output_stride temporal-mean 4\n\
                      #@ trigger  when  histogram.nan_count > 0  then  raise_fault_policy histogram restart:2:50";
        let plan = WorkflowPlan::from_script(script).unwrap();
        let expected: Vec<Trigger> = [
            (
                "histogram.max >= 2.5",
                "set_output_stride temporal-mean 4",
                2,
            ),
            (
                "histogram.nan_count > 0",
                "raise_fault_policy histogram restart:2:50",
                3,
            ),
        ]
        .into_iter()
        .map(|(when, then, line)| {
            let (component, signal, op, value) = Trigger::parse_when(when).unwrap();
            let action = Trigger::parse_then(then).unwrap();
            Trigger {
                line,
                ..Trigger::new(component, signal, op, value, action)
            }
        })
        .collect();
        assert_eq!(plan.triggers, expected);
        assert_eq!(plan.components.len(), 1, "directives are not entries");

        let script = "histogram a.fp x 4\n#@ trigger when histogram.max > x then snapshot_stream a.fp /tmp/s";
        let lint = crate::lint_source("t.sb", script, &crate::LintConfig::default());
        assert_eq!(
            lint.render_text(),
            "t.sb:2: error[SB000]: bad threshold \"x\" (a number)\n"
        );
    }

    #[test]
    fn transport_url_validation() {
        assert!(validate_transport_url("tcp://localhost:9000").is_ok());
        assert!(validate_transport_url("tcp://10.0.0.1:1").is_ok());
        assert!(validate_transport_url("tcp://[::1]:9000").is_ok());
        assert!(validate_transport_url("localhost:9000").is_err());
        assert!(validate_transport_url("tcp://x:70000").is_err());
        assert!(validate_transport_url("shm:///tmp/sb-rendezvous").is_ok());
        assert!(validate_transport_url("shm://rings").is_ok());
        assert!(validate_transport_url("shm://").is_err());
    }

    #[test]
    fn default_streams_per_code() {
        assert_eq!(SimCode::Lammps.default_stream(), "dump.custom.fp");
        assert_eq!(SimCode::Gtcp.default_stream(), "gtcp.fp");
        assert_eq!(SimCode::Gromacs.default_stream(), "gromacs.fp");
    }
}
