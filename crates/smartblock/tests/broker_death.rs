//! Kill the **broker** under a running `sb-run --connect` deployment: the
//! client process must exit non-zero, promptly, naming the cause — on TCP
//! and on the same-host `shm://` fabric alike.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A LAMMPS pipeline that streams until something stops it.
fn endless_script(hist: &Path) -> String {
    format!(
        "aprun -n 1 lammps nx=16 ny=16 steps=100000000 interval=1 &\n\
         aprun -n 1 select dump.custom.fp atoms 1 lmpselect.fp lmpsel vx vy vz &\n\
         aprun -n 1 magnitude lmpselect.fp lmpsel velos.fp velocities &\n\
         aprun -n 1 histogram velos.fp velocities 16 {} &\n\
         wait\n",
        hist.display()
    )
}

fn sb_run() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sb-run"))
}

fn assert_client_names_the_dead_broker(tag: &str, serve: &str) {
    let scratch = std::env::temp_dir().join(format!("sb-bdeath-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let hist = scratch.join("hist.txt");
    let script = scratch.join("wf.sb");
    std::fs::write(&script, endless_script(&hist)).unwrap();
    let script = script.to_str().unwrap();
    let serve = serve.replace("{scratch}", scratch.to_str().unwrap());

    // A broker-only process; it announces its URL on stderr (kept open:
    // the broker goes on logging there).
    let mut broker = sb_run()
        .args(["--script", script, "--serve", &serve])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the broker process");
    let mut broker_log = BufReader::new(broker.stderr.take().unwrap()).lines();
    let url = broker_log
        .by_ref()
        .map(|line| line.unwrap())
        .find_map(|line| line.strip_prefix("sb-run: serving ").map(str::to_string))
        .expect("the broker announces its URL");

    // Every component in one client process, every stream through the broker.
    let client = sb_run()
        .args(["--script", script, "--connect", &url])
        .args(["--components", "lammps,select,magnitude,histogram"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the client process");
    // The first histogram on disk means the whole pipeline is streaming.
    let deadline = Instant::now() + Duration::from_secs(60);
    while std::fs::metadata(&hist).map_or(0, |m| m.len()) == 0 {
        assert!(
            Instant::now() < deadline,
            "the pipeline never produced a step"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    broker.kill().expect("SIGKILL the broker");
    broker.wait().unwrap();
    let killed = Instant::now();
    let out = client.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("workflow failed"), "{stderr}");
    assert!(stderr.contains("peer gone"), "{stderr}");
    assert!(stderr.contains("broker connection lost"), "{stderr}");
    // The default read grace and connect budget are 15 s each; a death
    // noticed by EOF needs neither.
    assert!(
        killed.elapsed() < Duration::from_secs(15),
        "the client took {:?} to give up",
        killed.elapsed()
    );
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn sb_run_client_exits_nonzero_naming_a_killed_tcp_broker() {
    assert_client_names_the_dead_broker("tcp", "127.0.0.1:0");
}

#[test]
fn sb_run_client_exits_nonzero_naming_a_killed_shm_broker() {
    assert_client_names_the_dead_broker("shm", "shm://{scratch}/rendezvous");
}
