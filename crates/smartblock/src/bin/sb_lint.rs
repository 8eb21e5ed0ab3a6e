//! `sb-lint`: the SmartBlock lint engine CLI.
//!
//! Parses aprun-style launch scripts (the paper's Fig. 8 deployment
//! format), assembles each workflow *without running it*, and reports
//! every diagnostic the staged analyzer finds — wiring mistakes,
//! subscription cycles, contract violations, over-decomposition, cadence
//! mismatches, unsound or contradicting fault policies, invalid partition
//! plans, transport problems, wire-amplification estimates, and triggers on
//! undeclared components — each under a stable `SBxxx` lint ID. The lints
//! run over the one `WorkflowPlan` each script lowers to.
//!
//! ```text
//! wf.sb:4: error[SB001] no-writer: stream "m.fp" has no writer; ...
//! ```
//!
//! `--format json` emits one `smartblock.lint.v1` document for all linted
//! scripts (see `schemas/smartblock.lint.v1.json`); `--check PATH`
//! validates such a document.

use std::io::Read;
use std::process::ExitCode;

use smartblock::analysis::{
    check_report, lint_source, render_report_json, Level, LintConfig, ScriptLint, LINTS,
};

const EX_USAGE: u8 = 64;
const EX_DATAERR: u8 = 65;
const EX_NOINPUT: u8 = 66;

fn usage() {
    eprintln!(
        "usage: sb-lint [OPTIONS] SCRIPT... (or `-` for stdin)\n\
         statically checks SmartBlock launch scripts (.sb) without\n\
         running them\n\
         \n\
         options:\n\
         \x20 --format text|json   rendering (default text; json follows\n\
         \x20                      schemas/smartblock.lint.v1.json)\n\
         \x20 --deny-warnings      exit 2 when only warnings were found\n\
         \x20 --allow LINT         suppress a lint (by SBxxx ID or name)\n\
         \x20 --deny LINT          promote a lint to an error\n\
         \x20 --check PATH         validate a JSON lint report instead of linting\n\
         \x20 --lints              list every registered lint and exit\n\
         \n\
         exit status:\n\
         \x20 0   no diagnostics, or warnings only (without --deny-warnings)\n\
         \x20 1   at least one error-level diagnostic\n\
         \x20 2   warnings only, with --deny-warnings\n\
         \x20 64  usage error (unknown flag, unknown lint, no scripts)\n\
         \x20 65  --check: the report is not valid smartblock.lint.v1\n\
         \x20 66  a script (or --check file) could not be read"
    );
}

struct Args {
    format_json: bool,
    deny_warnings: bool,
    check: Option<String>,
    scripts: Vec<String>,
    config: LintConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        format_json: false,
        deny_warnings: false,
        check: None,
        scripts: Vec::new(),
        config: LintConfig::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--format" | "-f" => match value("--format")?.as_str() {
                "json" => args.format_json = true,
                "text" => args.format_json = false,
                other => return Err(format!("unknown format {other:?} (text|json)")),
            },
            "--deny-warnings" => args.deny_warnings = true,
            "--allow" | "-A" => args.config.set(&value("--allow")?, Level::Allow)?,
            "--deny" | "-D" => args.config.set(&value("--deny")?, Level::Deny)?,
            "--check" => args.check = Some(value("--check")?),
            "--lints" => {
                for lint in LINTS {
                    println!(
                        "{} {:24} {:7} {}",
                        lint.id, lint.name, lint.default_level, lint.summary
                    );
                }
                std::process::exit(0);
            }
            "-h" | "--help" => {
                usage();
                std::process::exit(0);
            }
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unknown argument {other:?}"));
            }
            script => args.scripts.push(script.to_string()),
        }
    }
    if args.check.is_none() && args.scripts.is_empty() {
        return Err("no scripts given".to_string());
    }
    Ok(args)
}

fn read_input(arg: &str) -> std::io::Result<String> {
    if arg == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        Ok(buf)
    } else {
        std::fs::read_to_string(arg)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sb-lint: {e}");
            usage();
            return ExitCode::from(EX_USAGE);
        }
    };

    if let Some(path) = &args.check {
        let text = match read_input(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sb-lint: {path}: {e}");
                return ExitCode::from(EX_NOINPUT);
            }
        };
        return match check_report(&text) {
            Ok(()) => {
                println!("{path}: valid smartblock.lint.v1 report");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("sb-lint: {path}: invalid report: {e}");
                ExitCode::from(EX_DATAERR)
            }
        };
    }

    let mut reports: Vec<ScriptLint> = Vec::new();
    let mut unreadable = false;
    for script in &args.scripts {
        let name = if script == "-" { "<stdin>" } else { script };
        match read_input(script) {
            Ok(text) => reports.push(lint_source(name, &text, &args.config)),
            Err(e) => {
                eprintln!("sb-lint: {name}: {e}");
                unreadable = true;
            }
        }
    }

    if args.format_json {
        print!("{}", render_report_json(&reports));
    } else {
        for report in &reports {
            print!("{}", report.render_text());
        }
    }

    let errors: usize = reports.iter().map(|r| r.errors()).sum();
    let warnings: usize = reports.iter().map(|r| r.warnings()).sum();
    if unreadable {
        ExitCode::from(EX_NOINPUT)
    } else if errors > 0 {
        ExitCode::from(1)
    } else if warnings > 0 && args.deny_warnings {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
