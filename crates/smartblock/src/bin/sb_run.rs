//! `sb-run`: run a SmartBlock workflow from its `.sb` launch script, whole
//! or as one process of a multi-process deployment.
//!
//! Modes:
//!
//! * `sb-run --script wf.sb`
//!   — run the whole workflow in process (the classic single-process mode).
//! * `sb-run --script wf.sb --serve ADDR [--components a,b]`
//!   — serve a broker on `ADDR` (`HOST:PORT` binds TCP, `shm://DIR` opens a
//!   same-host Unix-socket rendezvous), run the named components (default:
//!   none, broker only) on the broker's own hub, then keep serving until
//!   every remote connection has drained.
//! * `sb-run --script wf.sb --connect tcp://HOST:PORT --components a,b`
//!   (or `--connect shm://DIR`) — connect to a broker another process
//!   serves and run only the named components there.
//!
//! All processes must be given the *same* script: it is the single source
//! of truth for stream wiring and component labels (`--list` prints them).
//! A `#@ transport` directive supplies the default for `--serve`/
//! `--connect`; `#@ policy` directives set per-component fault policies and
//! `#@ trigger` directives arm reactive clauses. The wire shape and the hub
//! timeout are this process's flags (`--protocol`, `--compress`,
//! `--timeout`).
//!
//! The script is lowered once to a `WorkflowPlan`; that plan is what
//! `--list` prints, what the lint gate checks, and what the workflow is
//! built from. Before binding a broker or spawning any component, the plan
//! is run through the full lint engine (`sb-lint`); any error-level `SBxxx`
//! diagnostic — an invalid partition plan, a subscription cycle, a contract
//! violation, a trigger on an undeclared component, a second policy for one
//! component — refuses the launch with exit `1`. `--force` downgrades the
//! refusal to a stderr report and launches anyway. Exit status: `0` on
//! success, `1` on a lint refusal or workflow failure, `2` on usage or I/O
//! errors, or a script that does not lower — each offending line is
//! reported, and `--force` does not apply.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use sb_stream::tcp::TcpBroker;
use sb_stream::{ShmBroker, StreamHub};
use smartblock::analysis::{lint_plan, LintConfig};
use smartblock::launch::validate_transport_url;
use smartblock::plan::WorkflowPlan;
use smartblock::supervisor::{RunOptions, Validation};

struct Args {
    script: Option<String>,
    serve: Option<String>,
    connect: Option<String>,
    components: Vec<String>,
    list: bool,
    force: bool,
    hub_timeout: Option<Duration>,
    protocol: sb_stream::WireProtocol,
    compression: sb_stream::Compression,
}

/// Writes `text` to `out`, ignoring write errors: a broker whose log
/// reader went away must keep serving the clients that are mid-step, and
/// the exit status must say how the workflow ended, not how its log did.
fn emit(mut out: impl Write, text: std::fmt::Arguments<'_>) {
    let _ = out.write_fmt(text);
}

/// `eprintln!` through [`emit`]: every message of `sb-run` goes this way.
macro_rules! say {
    ($($arg:tt)*) => {
        emit(std::io::stderr(), format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn usage() {
    say!(
        "usage: sb-run --script FILE [--serve ADDR | --connect URL]\n\
         \x20             [--components a,b,...] [--timeout SECONDS] [--list] [--force]\n\
         \x20             [--protocol v1|v2] [--compress none|lz]\n\
         runs a SmartBlock workflow from its .sb launch script, whole or\n\
         as one process of a multi-process deployment (every process gets\n\
         the same script); scripts with error-level lint diagnostics\n\
         are refused before any component starts unless --force is\n\
         given. --serve takes a TCP bind address\n\
         (HOST:PORT, optionally tcp://) or a same-host Unix-socket\n\
         rendezvous (shm://DIR); --connect takes tcp://HOST:PORT or\n\
         shm://DIR. --protocol and --compress shape the wire frames of\n\
         this process's --connect sessions (v2 interns metadata; lz\n\
         compresses chunk payloads)"
    );
}

/// Either broker flavour behind one face: the serve branch's readiness and
/// quiet-drain loop is fabric-agnostic, so `sb-run` should be too.
enum Broker {
    Tcp(TcpBroker),
    Shm(ShmBroker),
}

impl Broker {
    fn bind(serve: &str) -> std::io::Result<Broker> {
        if serve.starts_with("shm://") {
            ShmBroker::bind(serve).map(Broker::Shm)
        } else {
            let bind = serve.strip_prefix("tcp://").unwrap_or(serve);
            TcpBroker::bind(bind).map(Broker::Tcp)
        }
    }

    fn url(&self) -> String {
        match self {
            Broker::Tcp(b) => b.url(),
            Broker::Shm(b) => b.url(),
        }
    }

    fn hub(&self) -> &Arc<StreamHub> {
        match self {
            Broker::Tcp(b) => b.hub(),
            Broker::Shm(b) => b.hub(),
        }
    }

    fn connections_seen(&self) -> usize {
        match self {
            Broker::Tcp(b) => b.connections_seen(),
            Broker::Shm(b) => b.connections_seen(),
        }
    }

    fn active_connections(&self) -> usize {
        match self {
            Broker::Tcp(b) => b.active_connections(),
            Broker::Shm(b) => b.active_connections(),
        }
    }

    fn shutdown(&mut self) {
        match self {
            Broker::Tcp(b) => b.shutdown(),
            Broker::Shm(b) => b.shutdown(),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        script: None,
        serve: None,
        connect: None,
        components: Vec::new(),
        list: false,
        force: false,
        hub_timeout: None,
        protocol: Default::default(),
        compression: Default::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--script" | "-s" => args.script = Some(value("--script")?),
            "--serve" => args.serve = Some(value("--serve")?),
            "--connect" => args.connect = Some(value("--connect")?),
            "--components" | "--component" | "-c" => {
                args.components.extend(
                    value("--components")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty()),
                );
            }
            "--timeout" => {
                let secs: u64 = value("--timeout")?
                    .parse()
                    .map_err(|_| "--timeout needs a number of seconds".to_string())?;
                args.hub_timeout = Some(Duration::from_secs(secs));
            }
            "--protocol" => {
                args.protocol = match value("--protocol")?.as_str() {
                    "v1" => sb_stream::WireProtocol::V1,
                    "v2" => sb_stream::WireProtocol::V2,
                    other => return Err(format!("--protocol must be v1 or v2, got {other:?}")),
                };
            }
            "--compress" => {
                args.compression = match value("--compress")?.as_str() {
                    "none" => sb_stream::Compression::None,
                    "lz" => sb_stream::Compression::Lz,
                    other => return Err(format!("--compress must be none or lz, got {other:?}")),
                };
            }
            "--list" => args.list = true,
            "--force" => args.force = true,
            "-h" | "--help" => {
                usage();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.script.is_none() {
        return Err("--script is required".to_string());
    }
    if args.serve.is_some() && args.connect.is_some() {
        return Err("--serve and --connect are mutually exclusive".to_string());
    }
    Ok(args)
}

fn run(
    hub: Arc<StreamHub>,
    plan: &WorkflowPlan,
    select: &[String],
    hub_timeout: Option<Duration>,
) -> Result<(), ExitCode> {
    let mut options = RunOptions::new();
    if let Some(timeout) = hub_timeout {
        options = options.with_hub_timeout(timeout);
    }
    // The plan carries policies and triggers; `workflow` applies them.
    let wf = match plan.workflow(hub, select) {
        Ok(wf) => wf,
        Err(detail) => {
            say!("sb-run: {detail}");
            return Err(ExitCode::from(2));
        }
    };
    // This process sees only its slice of the wiring, so the fail-fast
    // validator would reject legitimate partial deployments; the full
    // script already passed the pre-launch lint gate.
    match wf.run_with(options.with_validation(Validation::Skip)) {
        Ok(report) => {
            emit(std::io::stdout(), format_args!("{}\n", report.summary()));
            Ok(())
        }
        Err(e) => {
            say!("sb-run: workflow failed: {e}");
            Err(ExitCode::from(1))
        }
    }
}

/// The pre-launch gate: lint the whole plan and refuse to launch on any
/// error-level diagnostic. Runs before a broker is bound or a component is
/// spawned, so a malformed plan never starts half a deployment.
fn lint_gate(script_path: &str, plan: &WorkflowPlan, force: bool) -> Result<(), ExitCode> {
    let report = lint_plan(script_path, plan, &LintConfig::new());
    if report.errors() > 0 {
        emit(std::io::stderr(), format_args!("{}", report.render_text()));
        if force {
            say!("sb-run: {script_path}: launching despite lint errors (--force)");
            return Ok(());
        }
        say!(
            "sb-run: {}: refusing to launch: {} lint error(s) (--force to override)",
            script_path,
            report.errors()
        );
        return Err(ExitCode::from(1));
    }
    if report.warnings() > 0 {
        emit(std::io::stderr(), format_args!("{}", report.render_text()));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            say!("sb-run: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    let script_path = args.script.expect("checked in parse_args");
    let text = match std::fs::read_to_string(&script_path) {
        Ok(t) => t,
        Err(e) => {
            say!("sb-run: {script_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = match WorkflowPlan::from_script(&text) {
        Ok(p) => p,
        Err(errors) => {
            for e in errors {
                say!("sb-run: {script_path}: {e}");
            }
            return ExitCode::from(2);
        }
    };
    if args.list {
        for c in &plan.components {
            emit(
                std::io::stdout(),
                format_args!("{}\t-n {}\n", c.label, c.entry.nranks),
            );
        }
        return ExitCode::SUCCESS;
    }
    if let Err(code) = lint_gate(&script_path, &plan, args.force) {
        return code;
    }
    // The source's transport endpoint is the fallback; explicit flags win.
    // `--serve` wants a bare bind address, so strip the scheme.
    let connect = args
        .connect
        .or_else(|| plan.directives.transport.clone())
        .filter(|_| args.serve.is_none());
    if let Some(url) = &connect {
        if let Err(e) = validate_transport_url(url) {
            say!("sb-run: {e}");
            return ExitCode::from(2);
        }
    }

    if let Some(serve) = args.serve {
        let mut broker = match Broker::bind(&serve) {
            Ok(b) => b,
            Err(e) => {
                say!("sb-run: cannot serve on {serve}: {e}");
                return ExitCode::from(2);
            }
        };
        say!("sb-run: serving {}", broker.url());
        // Are parts of the script expected to arrive from other processes?
        let remotes_expected = args.components.is_empty()
            || plan
                .components
                .iter()
                .any(|c| !args.components.contains(&c.label));
        let result = if args.components.is_empty() {
            Ok(())
        } else {
            let hub = Arc::clone(broker.hub());
            run(hub, &plan, &args.components, args.hub_timeout)
        };
        if remotes_expected {
            // Local components may finish before remotes even dial in (a
            // buffered source, or broker-only mode): wait for the first
            // connection ever accepted (the monotonic count — a fast remote
            // can connect and leave entirely between two polls of the
            // active gauge), then keep serving until the active count has
            // stayed at zero for a full second — endpoints of one remote
            // process overlap, so a sustained zero means they all left.
            say!("sb-run: waiting for remote components");
            while broker.connections_seen() == 0 {
                std::thread::sleep(Duration::from_millis(100));
            }
            let mut quiet = 0;
            while quiet < 10 {
                quiet = if broker.active_connections() == 0 {
                    quiet + 1
                } else {
                    0
                };
                std::thread::sleep(Duration::from_millis(100));
            }
        }
        broker.shutdown();
        match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(code) => code,
        }
    } else if let Some(url) = connect {
        if args.components.is_empty() {
            say!("sb-run: --connect needs --components (which part of the script runs here?)");
            return ExitCode::from(2);
        }
        let options = sb_stream::TcpOptions::default()
            .with_protocol(args.protocol)
            .with_compression(args.compression);
        let hub = match StreamHub::connect_with(&url, options) {
            Ok(h) => h,
            Err(e) => {
                say!("sb-run: cannot connect to {url}: {e}");
                return ExitCode::from(2);
            }
        };
        match run(hub, &plan, &args.components, args.hub_timeout) {
            Ok(()) => ExitCode::SUCCESS,
            Err(code) => code,
        }
    } else {
        // Single-process: the whole workflow on an in-proc hub.
        match run(StreamHub::new(), &plan, &args.components, args.hub_timeout) {
            Ok(()) => ExitCode::SUCCESS,
            Err(code) => code,
        }
    }
}
