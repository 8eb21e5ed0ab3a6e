//! The three outputs: the driver's one-line result, the full report (one
//! JSON document on stdout, a table on stderr), and `--compare`.

use std::process::Command;

use crate::json::Json;
use crate::measure::{self, Budget, EndToEnd, Layers, Prepared};
use crate::pipeline::{self, Load, Stop};
use crate::stats::{summarize, tail_percentile, Summary};
use crate::wire_variants;
use crate::workloads::{Contract, MetricSpec, Workload, WORKLOADS};
use smartblock::metrics::format_table;

/// A rise in `setup_s` smaller than this is below what one run resolves,
/// whatever share of the median it is (the issue's "25% and 5 ms").
const SETUP_ABS_SLACK_S: f64 = 0.005;

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn measured(value: f64, unit: &str) -> Json {
    Json::obj([("value", num(value)), ("unit", Json::str(unit))])
}

// ---------------------------------------------------------------- driver

/// The samples behind one end-to-end metric, by contract name.
fn samples_of<'a>(e: &'a EndToEnd, name: &str) -> &'a [f64] {
    match name {
        "payload_mb_s" => &e.payload_mb_s,
        "step_latency_p50_ms" => &e.latency_p50_ms,
        "setup_s" => &e.setup_s,
        other => panic!(
            "BENCHMARK.json names an end-to-end metric this binary does not measure: {other}"
        ),
    }
}

fn layer_value(l: &Layers, name: &str) -> f64 {
    l.metric(name).unwrap_or_else(|| {
        panic!("BENCHMARK.json names a per-layer metric this binary does not measure: {name}")
    })
}

fn result_line(
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    value: impl Fn(&str) -> f64,
) -> Json {
    Json::obj([
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        (
            "metrics",
            Json::obj(
                specs
                    .iter()
                    .map(|m| (m.name.clone(), measured(value(&m.name), &m.unit))),
            ),
        ),
    ])
}

/// One run of the driver contract. Prints the result object as the last
/// line of stdout; returns whether every output check passed.
pub fn driver(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<bool, String> {
    let contract = Contract::load();
    let prepared = Prepared::new(workload, seed);
    let line = if trace {
        let layers = measure::layers(&prepared, seconds, None, 10)?;
        write_trace(workload.name, &layers)?;
        print_budgets(workload.name, &layers);
        result_line(layers.attempted, layers.failed, &contract.per_layer, |n| {
            layer_value(&layers, n)
        })
    } else {
        let e = measure::end_to_end(&prepared, seconds)?;
        result_line(e.attempted, e.failed, &contract.end_to_end, |n| {
            summarize(samples_of(&e, n)).median
        })
    };
    let correct = line.get("correct") == Some(&Json::Bool(true));
    println!("{}", line.render());
    Ok(correct)
}

fn write_trace(workload: &str, layers: &Layers) -> Result<String, String> {
    let dir = pipeline::artefact_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace.{workload}.json"));
    std::fs::write(&path, layers.timeline.chrome_trace_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn print_budgets(workload: &str, layers: &Layers) {
    eprintln!(
        "{workload}: step period {:.3} ms, bottleneck {}",
        layers.period_ms, layers.bottleneck
    );
    for b in [&layers.source, &layers.consumer] {
        let rows: Vec<String> = b.rows.iter().map(|(k, v)| format!("{k} {v:.3}")).collect();
        eprintln!(
            "  {:<13} {} | residual {:+.3} ms/step",
            b.subject,
            rows.join("  "),
            b.residual
        );
    }
}

// ---------------------------------------------------------------- full report

fn summary_json(s: Summary, unit: &str) -> Json {
    Json::obj([
        ("median", num(s.median)),
        ("q1", num(s.q1)),
        ("q3", num(s.q3)),
        ("n", num(s.n as f64)),
        ("unit", Json::str(unit)),
    ])
}

fn budget_json(b: &Budget) -> Json {
    Json::obj([
        ("subject", Json::str(&b.subject)),
        (
            "ms_per_step",
            Json::obj(b.rows.iter().map(|(k, v)| (*k, num(*v)))),
        ),
        ("residual_ms_per_step", num(b.residual)),
    ])
}

fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown (not run from a git checkout)".into(),
        rev => rev.to_string(),
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Steps of a paced rep next to a saturated rep of `steps`: a paced step
/// takes several periods, and a dozen samples past the warm-up are enough
/// for a median.
fn paced_steps(steps: u64) -> u64 {
    (steps / 5).max(pipeline::WARMUP_STEPS as u64 + 6)
}

/// Runs every workload and prints the full report. `smoke` shrinks every
/// step count so the whole report takes seconds. Returns whether every
/// output check passed.
pub fn full(seed: u64, smoke: bool) -> Result<bool, String> {
    let contract = Contract::load();
    let reps = if smoke { 2 } else { 7 };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let artefacts = pipeline::artefact_dir();
    std::fs::create_dir_all(&artefacts)
        .map_err(|e| format!("creating {}: {e}", artefacts.display()))?;

    let prepared: Vec<Prepared> = WORKLOADS.iter().map(|w| Prepared::new(w, seed)).collect();
    let steps_of = |w: &Workload| if smoke { w.smoke_steps } else { w.full_steps };

    // Timed reps, tracing off, round-robin so drift on the host spreads
    // over every workload alike.
    let mut samples: Vec<EndToEnd> = WORKLOADS.iter().map(|_| EndToEnd::default()).collect();
    for rep in 0..reps {
        for (p, e) in prepared.iter().zip(&mut samples) {
            let steps = steps_of(p.workload);
            let r = p.run(
                &p.workload.shape,
                Stop::Steps(steps),
                Load::Saturated,
                false,
            )?;
            e.absorb(&r, Load::Saturated, false);
            let paced = p.run(
                &p.workload.shape,
                Stop::Steps(paced_steps(steps)),
                Load::Paced,
                false,
            )?;
            e.absorb(&paced, Load::Paced, false);
            eprintln!(
                "rep {}/{reps} {:<22} {:>9.1} MB/s  p50 {:>8.3} ms  setup {:.4} s  failed {}",
                rep + 1,
                p.workload.name,
                r.payload_mb_s(),
                crate::stats::median(&paced.latencies_ms),
                r.setup_s,
                r.failed + paced.failed
            );
        }
    }

    // Traced pass at a quarter of the steps, plus probes and diagnostics.
    let mut traced = Vec::new();
    for p in &prepared {
        let stop = Stop::Steps((steps_of(p.workload) / 4).max(pipeline::WARMUP_STEPS as u64 + 2));
        let (seconds, table2_steps) = if smoke { (0.0, 2) } else { (20.0, 10) };
        let layers = measure::layers(p, seconds, Some(stop), table2_steps)?;
        let trace_file = write_trace(p.workload.name, &layers)?;
        print_budgets(p.workload.name, &layers);
        traced.push((layers, trace_file));
    }
    let variants = wire_variants::run(seed, if smoke { 20 } else { 400 })?;
    eprintln!(
        "wire_variants: {}",
        variants
            .get("v1_vs_v2")
            .and_then(Json::as_str)
            .unwrap_or("")
    );

    // The three LAMMPS replay backends saw the same frames in the same
    // order, so their histograms must agree with each other, too.
    let replay_heads: Vec<_> = prepared
        .iter()
        .zip(&samples)
        .filter(|(p, _)| p.workload.name.starts_with("lammps.replay."))
        .map(|(_, e)| &e.head)
        .collect();
    let backends_agree =
        replay_heads.windows(2).all(|w| w[0] == w[1]) && !replay_heads[0].is_empty();

    let mut all_correct = backends_agree;
    let mut workloads = Vec::new();
    let mut table = Vec::new();
    for ((p, e), (layers, trace_file)) in prepared.iter().zip(&samples).zip(&traced) {
        let w = p.workload;
        let attempted = e.attempted + layers.attempted;
        let failed = e.failed + layers.failed;
        all_correct &= failed == 0 && attempted > 0;
        let summaries: Vec<(&MetricSpec, Summary)> = contract
            .end_to_end
            .iter()
            .map(|m| (m, summarize(samples_of(e, &m.name))))
            .collect();
        let mut row = vec![w.name.to_string()];
        row.extend(summaries.iter().map(|(_, s)| format!("{:.4}", s.median)));
        row.push(failed.to_string());
        table.push(row);
        let p95 = tail_percentile(&e.latencies_ms, 0.95);
        workloads.push(Json::obj([
            ("name", Json::str(w.name)),
            ("why", Json::str(contract.why(w.name))),
            ("backend", Json::str(w.shape.backend.name())),
            ("rank_threads", num(w.shape.rank_threads() as f64)),
            ("steps_per_rep", num(steps_of(w) as f64)),
            ("payload_bytes_step", num(p.cap.bytes_per_step() as f64)),
            (
                "end_to_end",
                Json::obj(summaries.iter().map(|(m, s)| (m.name.clone(), summary_json(*s, &m.unit)))),
            ),
            ("attempted", num(attempted as f64)),
            ("failed", num(failed as f64)),
            ("failed_share", num(failed as f64 / attempted.max(1) as f64)),
            (
                "step_latency_p95_ms",
                Json::obj([
                    ("value", p95.map_or(Json::Null, num)),
                    ("samples", num(e.latencies_ms.len() as f64)),
                    ("note", Json::str("paced runs; diagnostic, not gated; null when fewer than ten samples lie beyond it")),
                ]),
            ),
            ("counters", Json::obj(e.counters.iter().map(|(k, v)| (k.clone(), num(*v as f64))))),
            ("bottleneck", Json::str(&layers.bottleneck)),
            (
                "layers",
                Json::obj([
                    ("step_period_ms", num(layers.period_ms)),
                    ("source", budget_json(&layers.source)),
                    ("consumer", budget_json(&layers.consumer)),
                ]),
            ),
            (
                "per_layer",
                Json::obj(
                    contract
                        .per_layer
                        .iter()
                        .map(|m| (m.name.clone(), measured(layer_value(layers, &m.name), &m.unit))),
                ),
            ),
            ("trace_file", Json::str(trace_file)),
        ]));
    }

    let mut headers = vec!["workload (medians)"];
    headers.extend(contract.end_to_end.iter().map(|m| m.name.as_str()));
    headers.push("failed");
    eprintln!("\n{}", format_table(&headers, &table));

    let threads = Json::obj(WORKLOADS.iter().map(|w| {
        let sessions = if w.shape.backend.is_remote() {
            " + one broker session thread per stream endpoint"
        } else {
            ""
        };
        (
            w.name,
            Json::str(format!("{} rank threads{sessions}", w.shape.rank_threads())),
        )
    }));
    let doc = Json::obj([
        ("schema", Json::str("smartblock.benchmark.v1")),
        ("smoke", Json::Bool(smoke)),
        (
            "header",
            Json::obj([
                ("seed", num(seed as f64)),
                ("nproc", num(nproc as f64)),
                ("git_revision", Json::str(git_revision())),
                ("rustc", Json::str(rustc_version())),
                (
                    "host_note",
                    Json::str(format!(
                        "brokers run inside the benchmark process; TCP is loopback; shm rings live under {} ({}); \
                         {nproc} cores serve every rank, supervisor and broker thread, so hops that would overlap on a \
                         wider host serialise here",
                        artefacts.display(),
                        pipeline::fs_type_of(&artefacts)
                    )),
                ),
                ("input_gen_s", num(prepared.iter().map(|p| p.cap.gen_s).sum())),
                ("reps", num(reps as f64)),
                ("threads", threads),
                (
                    "sb_comm",
                    Json::str("not measured: every reducing component runs one rank here, so no collective crosses ranks"),
                ),
            ]),
        ),
        ("workloads", Json::Arr(workloads)),
        ("wire_variants", variants),
        ("checks", Json::obj([("lammps_replay_backends_agree", Json::Bool(backends_agree))])),
        ("correct", Json::Bool(all_correct)),
    ]);
    println!("{}", doc.pretty());
    Ok(all_correct)
}

// ---------------------------------------------------------------- compare

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Regressed,
    Unresolved,
}

/// Baseline `a` against candidate `b` for one metric. The tolerance is the
/// bound's share of the baseline median (for `setup_s`, at least
/// [`SETUP_ABS_SLACK_S`]). `regressed`: the median got worse by more than
/// the tolerance and by more than either side's own quartile distance.
/// `unresolved`: a quartile distance is wider than the tolerance.
pub fn judge(spec: &MetricSpec, a: Summary, b: Summary) -> Verdict {
    let slack = if spec.name == "setup_s" {
        SETUP_ABS_SLACK_S
    } else {
        0.0
    };
    let tolerance = (spec.bound.unwrap_or(0.0) * a.median.abs()).max(slack);
    let worse = if spec.higher_is_better {
        a.median - b.median
    } else {
        b.median - a.median
    };
    let spread = (a.q3 - a.q1).max(b.q3 - b.q1);
    if worse > tolerance && worse > spread {
        Verdict::Regressed
    } else if spread > tolerance {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

fn workload_at<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
}

fn summary_at(doc: &Json, workload: &str, metric: &str) -> Option<Summary> {
    let m = workload_at(doc, workload)?.get("end_to_end")?.get(metric)?;
    let field = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Summary {
        median: field("median")?,
        q1: field("q1")?,
        q3: field("q3")?,
        n: field("n")? as usize,
    })
}

/// Compares two full reports metric by metric and workload by workload.
/// Returns whether nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let contract = Contract::load();
    let mut clean = true;
    let mut rows = Vec::new();
    for (workload, _) in &contract.workloads {
        for spec in &contract.end_to_end {
            let (Some(sa), Some(sb)) = (
                summary_at(&a, workload, &spec.name),
                summary_at(&b, workload, &spec.name),
            ) else {
                return Err(format!(
                    "{workload} / {} is missing from one of the reports",
                    spec.name
                ));
            };
            let verdict = judge(spec, sa, sb);
            clean &= verdict != Verdict::Regressed;
            rows.push(vec![
                workload.clone(),
                spec.name.clone(),
                format!("{:.4}", sa.median),
                format!("{:.4}", sb.median),
                format!("{:+.1}%", (sb.median / sa.median - 1.0) * 100.0),
                format!("{:.0}%", spec.bound.unwrap_or(0.0) * 100.0),
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
                .to_string(),
            ]);
        }
        let failed_share = |doc: &Json| {
            workload_at(doc, workload)
                .and_then(|w| w.get("failed_share"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let (fa, fb) = (failed_share(&a), failed_share(&b));
        clean &= fb <= fa;
        rows.push(vec![
            workload.clone(),
            "failed_share".into(),
            format!("{fa:.4}"),
            format!("{fb:.4}"),
            String::new(),
            "any rise".into(),
            if fb > fa { "regressed" } else { "within" }.to_string(),
        ]);
    }
    let headers = [
        "workload",
        "metric",
        "baseline",
        "candidate",
        "change",
        "bound",
        "verdict",
    ];
    println!("{}", format_table(&headers, &rows));
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: "x".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 7,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let rate = spec("payload_mb_s", true, 0.10);
        assert_eq!(judge(&rate, tight(100.0), tight(95.0)), Verdict::Within);
        assert_eq!(judge(&rate, tight(100.0), tight(85.0)), Verdict::Regressed);
        assert_eq!(judge(&rate, tight(100.0), tight(130.0)), Verdict::Within);
        let wide = Summary {
            median: 100.0,
            q1: 90.0,
            q3: 110.0,
            n: 7,
        };
        assert_eq!(judge(&rate, wide, tight(95.0)), Verdict::Unresolved);
        assert_eq!(judge(&rate, wide, tight(85.0)), Verdict::Unresolved);
        assert_eq!(judge(&rate, wide, tight(70.0)), Verdict::Regressed);

        let latency = spec("step_latency_p50_ms", false, 0.10);
        assert_eq!(
            judge(&latency, tight(10.0), tight(11.5)),
            Verdict::Regressed
        );
        assert_eq!(judge(&latency, tight(10.0), tight(8.0)), Verdict::Within);

        // Half a millisecond on a sub-millisecond set-up is not resolvable.
        let setup = spec("setup_s", false, 0.25);
        assert_eq!(judge(&setup, tight(0.0003), tight(0.0008)), Verdict::Within);
        assert_eq!(
            judge(&setup, tight(0.020), tight(0.030)),
            Verdict::Regressed
        );
    }
}
