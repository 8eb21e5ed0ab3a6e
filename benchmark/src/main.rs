//! The repository's one benchmark. See `README.md` beside this crate and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one result line
//! benchmark [--seed <n>] [--smoke]                                     every workload, full report
//! benchmark --compare A.json B.json                                    verdicts between two full reports
//! ```

mod capture;
mod json;
mod measure;
mod pipeline;
mod probes;
mod report;
mod stats;
mod wire_variants;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
  benchmark [--seed <u64>] [--smoke]
  benchmark --compare <baseline.json> <candidate.json>";

enum Mode {
    Driver {
        workload: &'static workloads::Workload,
        seconds: f64,
        trace: bool,
    },
    Full {
        smoke: bool,
    },
    Compare(String, String),
}

fn parse(args: &[String]) -> Result<(Mode, u64), String> {
    let mut seed = 1u64;
    let mut workload = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut compare = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--workload" => {
                let name = value()?;
                workload = Some(workloads::find(name).ok_or_else(|| {
                    let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => smoke = true,
            "--compare" => compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = match (compare, workload) {
        (Some((a, b)), _) => Mode::Compare(a, b),
        (None, Some(workload)) => Mode::Driver {
            workload,
            seconds: seconds.ok_or("--workload needs --seconds")?,
            trace,
        },
        (None, None) => Mode::Full { smoke },
    };
    Ok((mode, seed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, seed) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode {
        Mode::Driver {
            workload,
            seconds,
            trace,
        } => report::driver(workload, seed, seconds, trace),
        Mode::Full { smoke } => report::full(seed, smoke),
        Mode::Compare(a, b) => report::compare(&a, &b),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: an output check failed or a metric regressed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{self, Prepared};
    use crate::pipeline::{Load, Stop};
    use crate::workloads::{Contract, WORKLOADS};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn command_lines_parse_into_the_three_modes() {
        let (mode, seed) = parse(&args(
            "--workload lammps.replay.tcp --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(seed, 9);
        assert!(
            matches!(mode, Mode::Driver { workload, seconds, trace: true }
            if workload.name == "lammps.replay.tcp" && seconds == 10.0)
        );
        assert!(matches!(
            parse(&args("--smoke")).unwrap().0,
            Mode::Full { smoke: true }
        ));
        assert!(matches!(
            parse(&args("--compare a.json b.json")).unwrap().0,
            Mode::Compare(..)
        ));
        for bad in [
            "--workload nope --seconds 3",
            "--workload lammps.live",
            "--trace 2",
            "--seconds 0",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    /// Two smoke-sized runs of every workload: every histogram checks out,
    /// the timing-free counters repeat exactly, the wire counters sit where
    /// the backend says they should, and no shm rendezvous directory is left.
    #[test]
    fn smoke_runs_repeat_their_counters_and_clean_up() {
        for w in &WORKLOADS {
            let p = Prepared::new(w, 3);
            let mut runs = Vec::new();
            for _ in 0..2 {
                let r = p
                    .run(&w.shape, Stop::Steps(w.smoke_steps), Load::Saturated, false)
                    .unwrap();
                assert_eq!((r.steps, r.failed), (w.smoke_steps, 0), "{}", w.name);
                let mut e = measure::EndToEnd::default();
                e.absorb(&r, Load::Saturated, false);
                runs.push((e.counters, r));
            }
            assert_eq!(
                runs[0].0, runs[1].0,
                "{}: counters differ between two runs",
                w.name
            );
            let r = &runs[1].1;
            let wire: u64 = r.report.streams.iter().map(|m| m.bytes_on_wire).sum();
            let copied: u64 = r.report.streams.iter().map(|m| m.bytes_copied).sum();
            assert_eq!(
                wire > 0,
                w.shape.backend.is_remote(),
                "{}: wire bytes {wire}",
                w.name
            );
            let one_to_one = w.shape.source_ranks == 1;
            assert_eq!(copied == 0, one_to_one, "{}: bytes_copied {copied}", w.name);
        }
        let leftovers: Vec<_> = std::fs::read_dir(pipeline::artefact_dir())
            .map(|d| {
                d.flatten()
                    .filter(|e| e.file_name().to_string_lossy().starts_with("shm-"))
                    .collect()
            })
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    /// The traced pass yields every per-layer metric the contract names.
    #[test]
    fn traced_pass_covers_every_declared_layer_metric() {
        let contract = Contract::load();
        for w in [&WORKLOADS[1], &WORKLOADS[3]] {
            let p = Prepared::new(w, 5);
            let layers = measure::layers(&p, 0.0, Some(Stop::Steps(w.smoke_steps)), 2).unwrap();
            assert_eq!(layers.failed, 0);
            let produced: std::collections::BTreeSet<&str> =
                layers.metrics.iter().map(|(k, _)| *k).collect();
            let declared: std::collections::BTreeSet<&str> =
                contract.per_layer.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(produced, declared, "{}", w.name);
            assert!(!layers.timeline.is_empty());
            assert!(layers.metrics.iter().all(|(_, v)| v.is_finite()));
        }
    }
}
