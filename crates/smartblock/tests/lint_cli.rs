//! End-to-end CLI tests of `sb-lint` (exit-code contract, JSON output),
//! `sb-run`'s pre-launch lint gate (a malformed plan is refused before any
//! broker binds or component spawns), and a two-process `sb-run`
//! deployment of an example script.

use std::io::{BufRead, BufReader, Lines};
use std::process::{Child, ChildStderr, Command, ExitStatus, Output, Stdio};
use std::time::{Duration, Instant};

use smartblock::analysis::check_report;

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/lint/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn sb_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sb-lint"))
        .args(args)
        .output()
        .expect("run sb-lint")
}

fn sb_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sb-run"))
        .args(args)
        .output()
        .expect("run sb-run")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

#[test]
fn exit_zero_on_a_clean_script() {
    let out = sb_lint(&[&fixture("SB001-neg.sb")]);
    assert_eq!(code(&out), 0, "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
}

#[test]
fn exit_one_on_errors() {
    let out = sb_lint(&[&fixture("SB001-pos.sb")]);
    assert_eq!(code(&out), 1);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("error[SB001]"), "{text}");
    // Diagnostics point at the offending script line.
    assert!(text.contains("SB001-pos.sb:2:"), "{text}");
}

#[test]
fn warnings_exit_zero_unless_denied() {
    let script = fixture("SB002-pos.sb");
    let out = sb_lint(&[&script]);
    assert_eq!(code(&out), 0, "warnings alone must not fail the lint");
    assert!(String::from_utf8_lossy(&out.stdout).contains("warning[SB002]"));

    let out = sb_lint(&["--deny-warnings", &script]);
    assert_eq!(code(&out), 2, "--deny-warnings turns warnings into exit 2");
}

#[test]
fn allow_and_deny_reshape_the_exit_code() {
    let script = fixture("SB002-pos.sb");
    let out = sb_lint(&["--allow", "SB002", &script]);
    assert_eq!(code(&out), 0);
    assert!(out.stdout.is_empty(), "allowed lint must not render");

    let out = sb_lint(&["--deny", "no-reader", &script]);
    assert_eq!(code(&out), 1, "a denied lint is an error");
}

#[test]
fn usage_errors_exit_64() {
    assert_eq!(code(&sb_lint(&[])), 64, "no scripts");
    assert_eq!(code(&sb_lint(&["--bogus"])), 64, "unknown flag");
    let out = sb_lint(&["--allow", "SB999", "x.sb"]);
    assert_eq!(code(&out), 64, "unknown lint ID");
}

#[test]
fn unreadable_input_exits_66() {
    let out = sb_lint(&["/nonexistent/nope.sb"]);
    assert_eq!(code(&out), 66);
}

#[test]
fn json_report_validates_against_the_schema_checker() {
    let out = sb_lint(&["--format", "json", &fixture("SB001-pos.sb")]);
    assert_eq!(code(&out), 1, "format does not change the exit code");
    let json = String::from_utf8(out.stdout).unwrap();
    check_report(&json).unwrap();
    assert!(json.contains("\"id\":\"SB001\""), "{json}");

    // And --check accepts its own output.
    let path = std::env::temp_dir().join("sb_lint_cli_report.json");
    std::fs::write(&path, &json).unwrap();
    let out = sb_lint(&["--check", path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{out:?}");

    let out = sb_lint(&["--check", "/nonexistent/nope.json"]);
    assert_eq!(code(&out), 66);
    std::fs::write(&path, "not a report").unwrap();
    let out = sb_lint(&["--check", path.to_str().unwrap()]);
    assert_eq!(code(&out), 65);
}

/// The regression the lint engine exists for: `sb-run` must refuse an
/// invalid partition plan *before* spawning anything — no broker bound, no
/// component started, a stable SBxxx ID on stderr.
#[test]
fn sb_run_refuses_a_malformed_plan_before_launch() {
    let out = sb_run(&[
        "--script",
        &fixture("SB015-pos.sb"),
        "--serve",
        "127.0.0.1:0",
        "--components",
        "gromacs",
    ]);
    assert_eq!(code(&out), 1, "{out:?}");
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(stderr.contains("error[SB015]"), "{stderr}");
    assert!(stderr.contains("refusing to launch"), "{stderr}");
    // The broker announces itself the moment it binds; the gate must fire
    // first, so no announcement and no waiting-for-remotes line.
    assert!(!stderr.contains("serving"), "broker was bound: {stderr}");
    assert!(out.stdout.is_empty(), "a component ran: {out:?}");
}

/// A component that rejects its arguments (a non-numeric simulation
/// parameter, a non-integer `queue=`, zero bins) is a typed,
/// line-attributed error — from `sb-lint` an SB000 on the component's own
/// line, from `sb-run` a refusal before anything starts — and never a
/// panic (exit 101).
#[test]
fn rejected_arguments_are_line_attributed_errors_never_panics() {
    let file = "SB000-ctor-pos.sb";
    let path = fixture(file);
    let out = sb_lint(&[&path]);
    assert_eq!(code(&out), 1, "{out:?}");
    assert!(out.stderr.is_empty(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains(&format!(
            "{file}:2: error[SB000]: component rejected its arguments: \
             simulation parameter chains=\"abc\" is not an integer"
        )),
        "{text}"
    );
    assert!(text.contains(&format!("{file}:3: error[SB000]")), "{text}");
    assert!(
        text.contains(&format!(
            "{file}:4: error[SB000]: component rejected its arguments: \
             histogram needs at least one bin"
        )),
        "{text}"
    );

    let out = sb_run(&["--script", &path, "--serve", "127.0.0.1:0"]);
    assert!(matches!(code(&out), 1 | 2), "{out:?}");
    let stderr = String::from_utf8(out.stderr.clone()).unwrap();
    assert!(
        stderr.contains("line 4: component rejected its arguments"),
        "{stderr}"
    );
    assert!(stderr.contains("at least one bin"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("serving"), "broker was bound: {stderr}");
    assert!(out.stdout.is_empty(), "a component ran: {out:?}");
}

/// A simulation line takes its code's parameters and the writer options,
/// nothing else: a retired token, another code's key and a typo are one
/// SB000 on the line, naming the first of them and what the code takes.
#[test]
fn unknown_simulation_keys_are_an_error_on_their_line() {
    let path = std::env::temp_dir().join(format!("sb-lint-sim-keys-{}.sb", std::process::id()));
    std::fs::write(
        &path,
        "aprun -n 2 gromacs chains=8 len=8 steps=3 interval=2 groups=2 nx=4 step=3 &\n\
         aprun -n 2 magnitude gromacs.fp coords m.fp r &\n\
         aprun -n 1 histogram m.fp r 4 &\n\
         wait\n",
    )
    .unwrap();
    let out = sb_lint(&[path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code(&out), 1, "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.matches("error[SB000]").count(), 1, "{text}");
    assert!(
        text.contains(
            ":1: error[SB000]: component rejected its arguments: gromacs takes no option \
             groups= (its options: angle= chains= interval= len= queue= rendezvous= seed= \
             steps= stream=)"
        ),
        "{text}"
    );
}

/// A trigger on an undeclared component (SB019) and a second policy for
/// one component (SB020) are error-level lints: `sb-run` refuses the
/// script at its pre-launch gate, naming the directive's line, before a
/// broker is bound.
#[test]
fn sb_run_refuses_undeclared_trigger_refs_and_second_policies() {
    for (file, needle) in [
        (
            "SB019-pos.sb",
            "SB019-pos.sb:2: error[SB019]: trigger references component \"ghost\"",
        ),
        (
            "SB020-pos.sb",
            "SB020-pos.sb:3: error[SB020]: a second #@ policy for component \"gromacs\" \
             contradicts the one at line 2",
        ),
    ] {
        let path = fixture(file);
        let out = sb_run(&["--script", &path, "--serve", "127.0.0.1:0"]);
        assert_eq!(code(&out), 1, "{file}: {out:?}");
        assert!(out.stdout.is_empty(), "{file}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(needle), "{file}: {stderr}");
        assert!(stderr.contains("refusing to launch"), "{file}: {stderr}");
        assert!(!stderr.contains("serving"), "broker was bound: {stderr}");
    }
}

#[test]
fn sb_run_executes_a_clean_script() {
    let out = sb_run(&["--script", &fixture("SB000-neg.sb")]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("histogram"), "{stdout}");
}

/// The multi-process GROMACS example script.
fn gromacs_tcp_script() -> String {
    format!(
        "{}/../../examples/scripts/gromacs_tcp.sb",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Starts `sb-run --serve` on an ephemeral port running the simulation,
/// and reads the URL it announces on stderr; returns the broker, the rest
/// of its stderr, and the URL.
fn serve_gromacs(script: &str) -> (Child, Lines<BufReader<ChildStderr>>, String) {
    let mut broker = Command::new(env!("CARGO_BIN_EXE_sb-run"))
        .args(["--script", script, "--serve", "127.0.0.1:0"])
        .args(["--components", "gromacs"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the broker process");
    let mut log = BufReader::new(broker.stderr.take().unwrap()).lines();
    let url = log
        .by_ref()
        .map(|line| line.unwrap())
        .find_map(|line| line.strip_prefix("sb-run: serving ").map(str::to_string))
        .expect("the broker announces its URL");
    (broker, log, url)
}

/// Runs the analysis half of the GROMACS example against `url`; it must
/// exit 0 and print its summary.
fn connect_analysis(script: &str, url: &str) {
    let client = sb_run(&[
        "--script",
        script,
        "--connect",
        url,
        "--components",
        "magnitude,histogram",
    ]);
    assert_eq!(code(&client), 0, "{client:?}");
    let summary = String::from_utf8(client.stdout).unwrap();
    assert!(summary.contains("histogram"), "{summary}");
}

/// Waits up to a minute for `child` to exit.
fn exit_status(child: &mut Child) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if Instant::now() > deadline {
            child.kill().unwrap();
            panic!("the broker process did not exit");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The multi-process GROMACS example runs from its one `.sb` script as two
/// `sb-run` processes: a broker that runs the simulation, and a client
/// that connects and runs the analysis. Both exit 0. (The broker binds an
/// ephemeral port instead of the script's `#@ transport` endpoint, so
/// concurrent test runs cannot collide.)
#[test]
fn gromacs_tcp_example_runs_as_a_serve_and_a_connect_process() {
    let script = gromacs_tcp_script();
    // Kept open to the end: the broker goes on logging there.
    let (mut broker, _log, url) = serve_gromacs(&script);
    connect_analysis(&script, &url);
    let status = exit_status(&mut broker);
    assert!(status.success(), "broker exited with {status}");
}

/// A broker whose stderr reader goes away keeps serving: its next log
/// line fails to write, and neither it nor its client may die of that.
#[test]
fn a_broker_whose_stderr_is_closed_serves_its_client_to_the_end() {
    let script = gromacs_tcp_script();
    let (mut broker, log, url) = serve_gromacs(&script);
    drop(log);
    connect_analysis(&script, &url);
    let status = exit_status(&mut broker);
    assert!(status.success(), "broker exited with {status}");
}
