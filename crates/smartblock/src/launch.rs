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
//! `launch` is the grammar of one such invocation — program name,
//! process count, argument tokens — and yields a typed [`LaunchEntry`].
//! [`WorkflowPlan::from_script`] imports a whole script (the aprun lines
//! plus `#@` directive comments) by tokenising each line into `launch`;
//! the `.sbw` compiler in [`crate::spec`] feeds the same function from its
//! `[[component]]` tables. Both lower to one [`WorkflowPlan`].

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use crate::combine::BinaryOp;
use crate::component::StreamArray;
use crate::plan::{plan_components, WorkflowPlan};
use crate::reduce::ReduceOp;
use crate::supervisor::FaultPolicy;
use crate::threshold::Predicate;

/// Why one line of a launch description — a `.sb` script line or a `.sbw`
/// table — does not lower to a [`WorkflowPlan`]: a syntax error, a bad
/// argument, or a component that rejects its arguments.
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
    /// The conventional output stream each code's ADIOS config names.
    pub fn default_stream(self) -> &'static str {
        match self {
            SimCode::Lammps => "dump.custom.fp",
            SimCode::Gtcp => "gtcp.fp",
            SimCode::Gromacs => "gromacs.fp",
        }
    }
}

/// One parsed program invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Program {
    /// `select in-stream in-array dim-index out-stream out-array names...`
    Select {
        /// Input endpoint.
        input: StreamArray,
        /// Dimension to filter.
        dim_index: usize,
        /// Output endpoint.
        output: StreamArray,
        /// Row names to keep.
        keep: Vec<String>,
    },
    /// `magnitude in-stream in-array out-stream out-array`
    Magnitude {
        /// Input endpoint.
        input: StreamArray,
        /// Output endpoint.
        output: StreamArray,
    },
    /// `dim-reduce in-stream in-array remove grow out-stream out-array`
    DimReduce {
        /// Input endpoint.
        input: StreamArray,
        /// Dimension to remove.
        remove: usize,
        /// Dimension that absorbs it.
        grow: usize,
        /// Output endpoint.
        output: StreamArray,
    },
    /// `histogram in-stream in-array num-bins [output-file]`
    Histogram {
        /// Input endpoint.
        input: StreamArray,
        /// Bin count.
        num_bins: usize,
        /// Optional file rank 0 appends results to.
        output_file: Option<String>,
    },
    /// `reduce in-stream in-array dim op out-stream out-array`
    Reduce {
        /// Input endpoint.
        input: StreamArray,
        /// Dimension to collapse.
        dim: usize,
        /// Aggregation (`sum`, `mean`, `min`, `max`).
        op: ReduceOp,
        /// Output endpoint.
        output: StreamArray,
    },
    /// `threshold in-stream in-array mode value out-stream out-array`
    Threshold {
        /// Input endpoint.
        input: StreamArray,
        /// Predicate (`gt`, `lt`, `abs-gt` with a threshold value).
        predicate: Predicate,
        /// Output endpoint.
        output: StreamArray,
    },
    /// `transpose in-stream in-array perm out-stream out-array`
    Transpose {
        /// Input endpoint.
        input: StreamArray,
        /// Axis permutation (comma-separated indices).
        perm: Vec<usize>,
        /// Output endpoint.
        output: StreamArray,
    },
    /// `combine left-stream left-array op right-stream right-array out-stream out-array`
    Combine {
        /// Left input endpoint.
        left: StreamArray,
        /// Element-wise operation (`add`, `sub`, `mul`, `div`).
        op: BinaryOp,
        /// Right input endpoint.
        right: StreamArray,
        /// Output endpoint.
        output: StreamArray,
    },
    /// `temporal-mean in-stream in-array window out-stream out-array`
    TemporalMean {
        /// Input endpoint.
        input: StreamArray,
        /// Steps to average over.
        window: usize,
        /// Output endpoint.
        output: StreamArray,
    },
    /// `stats in-stream in-array out-stream out-array`
    Stats {
        /// Input endpoint.
        input: StreamArray,
        /// Output endpoint.
        output: StreamArray,
    },
    /// `fork in-stream out-stream...`
    Fork {
        /// Input stream.
        input: String,
        /// Output streams.
        outputs: Vec<String>,
    },
    /// `aio in-stream in-array num-bins names...`
    AllInOne {
        /// Input endpoint.
        input: StreamArray,
        /// Bin count.
        num_bins: usize,
        /// Vector-component column names.
        keep: Vec<String>,
    },
    /// `file-write in-stream path`
    FileWrite {
        /// Input stream.
        input: String,
        /// Container path.
        path: String,
    },
    /// `file-read path out-stream`
    FileRead {
        /// Container path.
        path: String,
        /// Output stream.
        output: String,
    },
    /// `lammps|gtcp|gromacs [key=value ...] [< input-file]`
    Simulation {
        /// Which code.
        code: SimCode,
        /// `key=value` overrides (sizes, steps, seed, stream).
        params: BTreeMap<String, String>,
        /// The `< file` operand, if present (recorded, not read).
        stdin: Option<String>,
    },
}

/// One program invocation of a launch description.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchEntry {
    /// Process count from `-n`.
    pub nranks: usize,
    /// The program and its arguments.
    pub program: Program,
    /// Trailing `key=value` options on component lines: `group=` (reader
    /// group), `groups=N` (declared subscriber count on the output),
    /// `queue=N` (writer queue depth), `rendezvous=1` (synchronous
    /// hand-off). Simulation lines keep their `key=value` tokens as
    /// program parameters instead.
    pub options: BTreeMap<String, String>,
    /// 1-based source line of the invocation (the aprun line of a `.sb`
    /// script, the `[[component]]` header of a `.sbw` spec), threaded into
    /// lint diagnostics.
    pub line: usize,
}

impl LaunchEntry {
    /// Sets one `key=value` launch option where the grammar would have put
    /// it: among a simulation's parameters, or among a component's
    /// trailing options.
    pub(crate) fn set_option(&mut self, key: &str, value: String) {
        let map = match &mut self.program {
            Program::Simulation { params, .. } => params,
            _ => &mut self.options,
        };
        map.insert(key.to_string(), value);
    }
}

/// The fault policy the workflow applies to one component: a
/// `#@ policy LABEL abort|degrade|restart:N[:BACKOFF_MS]` directive or a
/// `[policy.LABEL]` table.
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
/// assigned to it: a `#@ process NAME member[,member...]` directive or a
/// `[process.NAME]` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessDirective {
    /// Process name (the `--only` selection key).
    pub name: String,
    /// Component labels assigned to this process.
    pub members: Vec<String>,
    /// 1-based source line of the directive.
    pub line: usize,
}

/// Workflow-level directives: `#@ key value` comment lines of a `.sb`
/// script (invisible to the per-line grammar; old parsers skip them as
/// comments) or the `[transport]`/`[policy.*]`/`[process.*]` tables of a
/// `.sbw` spec.
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

impl ScriptDirectives {
    /// Records a transport endpoint declared at `line`, rejecting a
    /// malformed URL.
    pub(crate) fn declare_transport(&mut self, url: &str, line: usize) -> Result<(), LaunchError> {
        validate_transport_url(url).map_err(|detail| err(line, detail))?;
        if self.transport.is_none() {
            self.transport = Some(url.to_string());
        }
        self.transports.push((url.to_string(), line));
        Ok(())
    }
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
    /// grammar plus `#@` directive comments — as a plan. A malformed line
    /// or directive (unknown key, missing value, bad transport URL) stops
    /// the import at that line, so linted scripts are deployable as
    /// written; `wait`, comments and blank lines are skipped.
    pub fn from_script(text: &str) -> Result<WorkflowPlan, Vec<LaunchError>> {
        let (entries, directives) = import_script(text).map_err(|e| vec![e])?;
        Ok(WorkflowPlan {
            components: plan_components(entries)?,
            directives,
            ..WorkflowPlan::default()
        })
    }
}

/// Tokenises script lines into [`launch`] calls and `#@` directives.
fn import_script(text: &str) -> Result<(Vec<LaunchEntry>, ScriptDirectives), LaunchError> {
    let mut entries = Vec::new();
    let mut directives = ScriptDirectives::default();
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
                    directives.declare_transport(url, line)?;
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
        entries.push(launch(nranks, program, &tokens, line)?);
    }
    Ok((entries, directives))
}

/// The grammar of one program invocation, shared by both front-ends:
/// `program` launched on `nranks` processes with `args`, each one token —
/// positionals, trailing `key=value` options, an optional `< file`
/// redirect. `line` is the invocation's source line.
pub(crate) fn launch(
    nranks: usize,
    program: &str,
    args: &[&str],
    line: usize,
) -> Result<LaunchEntry, LaunchError> {
    let mut tokens = args.to_vec();
    let is_sim = matches!(program, "lammps" | "gtcp" | "gromacs");

    // Component lines may carry trailing key=value options; simulation
    // lines keep key=value tokens as their parameters.
    let mut options = BTreeMap::new();
    if !is_sim {
        tokens.retain(|t| {
            if let Some((k, v)) = t.split_once('=') {
                options.insert(k.to_string(), v.to_string());
                false
            } else {
                true
            }
        });
    }

    // Extract a `< file` redirect anywhere in the remaining tokens.
    let mut stdin = None;
    if let Some(pos) = tokens.iter().position(|t| *t == "<") {
        if pos + 1 >= tokens.len() {
            return Err(err(line, "'<' needs a file operand"));
        }
        stdin = Some(tokens[pos + 1].to_string());
        tokens.drain(pos..pos + 2);
    }

    let need = |n: usize, usage: &str| -> Result<(), LaunchError> {
        if tokens.len() < n {
            Err(err(line, format!("usage: {usage}")))
        } else {
            Ok(())
        }
    };

    let parsed = match program {
        "select" => {
            need(
                5,
                "select in-stream in-array dim-index out-stream out-array names...",
            )?;
            Program::Select {
                input: StreamArray::new(tokens[0], tokens[1]),
                dim_index: parse_usize(tokens[2], "dimension index", line)?,
                output: StreamArray::new(tokens[3], tokens[4]),
                keep: tokens[5..].iter().map(|t| t.to_string()).collect(),
            }
        }
        "magnitude" => {
            need(4, "magnitude in-stream in-array out-stream out-array")?;
            Program::Magnitude {
                input: StreamArray::new(tokens[0], tokens[1]),
                output: StreamArray::new(tokens[2], tokens[3]),
            }
        }
        "dim-reduce" => {
            need(
                6,
                "dim-reduce in-stream in-array remove grow out-stream out-array",
            )?;
            Program::DimReduce {
                input: StreamArray::new(tokens[0], tokens[1]),
                remove: parse_usize(tokens[2], "dim-to-remove", line)?,
                grow: parse_usize(tokens[3], "dim-to-grow", line)?,
                output: StreamArray::new(tokens[4], tokens[5]),
            }
        }
        "histogram" => {
            need(3, "histogram in-stream in-array num-bins [output-file]")?;
            Program::Histogram {
                input: StreamArray::new(tokens[0], tokens[1]),
                num_bins: parse_usize(tokens[2], "num-bins", line)?,
                output_file: tokens.get(3).map(|t| t.to_string()),
            }
        }
        "reduce" => {
            need(6, "reduce in-stream in-array dim op out-stream out-array")?;
            let op = ReduceOp::parse(tokens[3]).ok_or_else(|| {
                err(
                    line,
                    format!("unknown reduce op {:?} (sum|mean|min|max)", tokens[3]),
                )
            })?;
            Program::Reduce {
                input: StreamArray::new(tokens[0], tokens[1]),
                dim: parse_usize(tokens[2], "dimension", line)?,
                op,
                output: StreamArray::new(tokens[4], tokens[5]),
            }
        }
        "threshold" => {
            need(
                6,
                "threshold in-stream in-array mode value out-stream out-array",
            )?;
            let value: f64 = tokens[3].parse().map_err(|_| {
                err(
                    line,
                    format!("threshold value must be a number, got {:?}", tokens[3]),
                )
            })?;
            let predicate = Predicate::parse(tokens[2], value).ok_or_else(|| {
                err(
                    line,
                    format!("unknown threshold mode {:?} (gt|lt|abs-gt)", tokens[2]),
                )
            })?;
            Program::Threshold {
                input: StreamArray::new(tokens[0], tokens[1]),
                predicate,
                output: StreamArray::new(tokens[4], tokens[5]),
            }
        }
        "transpose" => {
            need(5, "transpose in-stream in-array perm out-stream out-array")?;
            let perm: Vec<usize> = tokens[2]
                .split(',')
                .map(|t| parse_usize(t.trim(), "permutation index", line))
                .collect::<Result<_, _>>()?;
            Program::Transpose {
                input: StreamArray::new(tokens[0], tokens[1]),
                perm,
                output: StreamArray::new(tokens[3], tokens[4]),
            }
        }
        "combine" => {
            need(
                7,
                "combine left-stream left-array op right-stream right-array out-stream out-array",
            )?;
            let op = BinaryOp::parse(tokens[2]).ok_or_else(|| {
                err(
                    line,
                    format!("unknown combine op {:?} (add|sub|mul|div)", tokens[2]),
                )
            })?;
            Program::Combine {
                left: StreamArray::new(tokens[0], tokens[1]),
                op,
                right: StreamArray::new(tokens[3], tokens[4]),
                output: StreamArray::new(tokens[5], tokens[6]),
            }
        }
        "temporal-mean" => {
            need(
                5,
                "temporal-mean in-stream in-array window out-stream out-array",
            )?;
            Program::TemporalMean {
                input: StreamArray::new(tokens[0], tokens[1]),
                window: parse_usize(tokens[2], "window", line)?,
                output: StreamArray::new(tokens[3], tokens[4]),
            }
        }
        "stats" => {
            need(4, "stats in-stream in-array out-stream out-array")?;
            Program::Stats {
                input: StreamArray::new(tokens[0], tokens[1]),
                output: StreamArray::new(tokens[2], tokens[3]),
            }
        }
        "fork" => {
            need(2, "fork in-stream out-stream...")?;
            Program::Fork {
                input: tokens[0].to_string(),
                outputs: tokens[1..].iter().map(|t| t.to_string()).collect(),
            }
        }
        "aio" => {
            need(4, "aio in-stream in-array num-bins names...")?;
            Program::AllInOne {
                input: StreamArray::new(tokens[0], tokens[1]),
                num_bins: parse_usize(tokens[2], "num-bins", line)?,
                keep: tokens[3..].iter().map(|t| t.to_string()).collect(),
            }
        }
        "file-write" => {
            need(2, "file-write in-stream path")?;
            Program::FileWrite {
                input: tokens[0].to_string(),
                path: tokens[1].to_string(),
            }
        }
        "file-read" => {
            need(2, "file-read path out-stream")?;
            Program::FileRead {
                path: tokens[0].to_string(),
                output: tokens[1].to_string(),
            }
        }
        "lammps" | "gtcp" | "gromacs" => {
            let code = match program {
                "lammps" => SimCode::Lammps,
                "gtcp" => SimCode::Gtcp,
                _ => SimCode::Gromacs,
            };
            let mut params = BTreeMap::new();
            for t in &tokens {
                let (k, v) = t.split_once('=').ok_or_else(|| {
                    err(
                        line,
                        format!("simulation arguments must be key=value, got {t:?}"),
                    )
                })?;
                params.insert(k.to_string(), v.to_string());
            }
            Program::Simulation {
                code,
                params,
                stdin,
            }
        }
        other => return Err(err(line, format!("unknown program {other:?}"))),
    };
    Ok(LaunchEntry {
        nranks,
        program: parsed,
        options,
        line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The launch entries `script` imports to, through the one entry point.
    fn entries(script: &str) -> Vec<LaunchEntry> {
        let plan = WorkflowPlan::from_script(script).unwrap();
        plan.components.into_iter().map(|c| c.entry).collect()
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
        let entries = entries(FIG8);
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].nranks, 64);
        assert_eq!(
            entries[0].program,
            Program::Histogram {
                input: StreamArray::new("velos.fp", "velocities"),
                num_bins: 16,
                output_file: None,
            }
        );
        assert_eq!(entries[1].nranks, 256);
        assert_eq!(
            entries[1].program,
            Program::Magnitude {
                input: StreamArray::new("lmpselect.fp", "lmpsel"),
                output: StreamArray::new("velos.fp", "velocities"),
            }
        );
        assert_eq!(
            entries[2].program,
            Program::Select {
                input: StreamArray::new("dump.custom.fp", "atoms"),
                dim_index: 1,
                output: StreamArray::new("lmpselect.fp", "lmpsel"),
                keep: vec!["vx".into(), "vy".into(), "vz".into()],
            }
        );
        assert_eq!(entries[3].nranks, 1024);
        assert_eq!(
            entries[3].program,
            Program::Simulation {
                code: SimCode::Lammps,
                params: BTreeMap::new(),
                stdin: Some("in.cracksm".into()),
            }
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
        let entries = entries(script);
        assert_eq!(entries.len(), 5);
        match &entries[0].program {
            Program::Simulation {
                code,
                params,
                stdin,
            } => {
                assert_eq!(*code, SimCode::Gtcp);
                assert_eq!(params["slices"], "16");
                assert_eq!(params["steps"], "3");
                assert!(stdin.is_none());
            }
            other => panic!("expected simulation, got {other:?}"),
        }
        match &entries[4].program {
            Program::Histogram { output_file, .. } => {
                assert_eq!(output_file.as_deref(), Some("/tmp/h.txt"));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn parses_extension_components() {
        let script = r#"
            fork in.fp a.fp b.fp
            stats a.fp x st.fp summary
            file-write b.fp /tmp/out.sbc
            file-read /tmp/out.sbc replay.fp
            aio dump.fp atoms 16 vx vy vz
        "#;
        let entries = entries(script);
        assert_eq!(entries.len(), 5);
        // Bare lines default to one rank.
        assert!(entries.iter().all(|e| e.nranks == 1));
        assert!(matches!(entries[0].program, Program::Fork { .. }));
        assert!(matches!(entries[4].program, Program::AllInOne { .. }));
    }

    #[test]
    fn spec_schema_names_exactly_the_programs_launch_accepts() {
        use std::collections::BTreeSet;
        let schema = include_str!("../../../schemas/smartblock.spec.v1.json");
        // The `program` property's description lists the names in
        // parentheses: `a simulation (lammps, …) or a component (select, …)`.
        let (_, program) = schema.split_once("\"program\": {").unwrap();
        let (_, description) = program.split_once("\"description\": \"").unwrap();
        let (description, _) = description.split_once('"').unwrap();
        let schema: BTreeSet<&str> = description
            .split('(')
            .skip(1)
            .flat_map(|group| group.split(')').next().unwrap().split(','))
            .map(str::trim)
            .collect();
        // The names `launch` matches on, read off its arms...
        let source = include_str!("launch.rs");
        let start = source.find("let parsed = match program {").unwrap();
        let end = source.find("other => return Err").unwrap();
        let grammar: BTreeSet<&str> = source[start..end]
            .lines()
            .filter_map(|l| l.trim().strip_suffix("=> {"))
            .flat_map(|arm| arm.split('|'))
            .map(|name| name.trim().trim_matches('"'))
            .collect();
        // ...and `launch` itself, so a schema name no arm matches fails by
        // name and a misread arm cannot pass.
        for name in schema.union(&grammar) {
            let accepted = match launch(1, name, &[], 1) {
                Ok(_) => true,
                Err(e) => !e.detail.starts_with("unknown program"),
            };
            assert!(accepted, "launch rejects {name:?}");
        }
        assert_eq!(schema, grammar);
    }

    #[test]
    fn rejects_malformed_lines() {
        for (script, what) in [
            ("aprun -n x select a b 1 c d vx", "bad nranks"),
            ("aprun -n 0 magnitude a b c d", "zero ranks"),
            ("aprun -n 2 bogus a b", "unknown program"),
            ("select a b", "too few args"),
            ("dim-reduce a b one 1 c d", "non-integer dim"),
            ("lammps foo", "non key=value sim arg"),
            ("aprun -n", "missing count"),
            ("lammps <", "dangling redirect"),
            ("aprun -n 2", "missing program"),
        ] {
            assert!(
                WorkflowPlan::from_script(script).is_err(),
                "should reject: {what}"
            );
        }
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
        ] {
            assert!(
                WorkflowPlan::from_script(script).is_err(),
                "should reject: {what}"
            );
        }
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
