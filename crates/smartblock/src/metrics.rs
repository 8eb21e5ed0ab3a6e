//! Per-component and per-workflow measurement, mirroring what the paper's
//! evaluation reports: per-timestep completion times averaged over a
//! component's communicator, per-process throughput in KB/s, and end-to-end
//! workflow times.

use std::time::Duration;

use sb_stream::{EventKind, StreamMetrics, Timeline};

use crate::error::ComponentError;

/// How a supervised component finished.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ComponentOutcome {
    /// Every rank returned cleanly (possibly after restarts — see
    /// [`ComponentReport::attempts`]).
    #[default]
    Completed,
    /// The component failed and its policy degraded it: outputs were closed
    /// cleanly and the rest of the workflow finished without it.
    Degraded {
        /// The failure that triggered the degradation.
        error: ComponentError,
    },
    /// The component failed fatally (abort policy or exhausted restarts).
    Failed {
        /// The failure of the final attempt.
        error: ComponentError,
    },
}

impl ComponentOutcome {
    /// True for [`ComponentOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, ComponentOutcome::Completed)
    }
}

/// One rank's accounting over a component run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentStats {
    /// Timesteps processed.
    pub steps: u64,
    /// Bytes read from the input stream(s) by this rank.
    pub bytes_in: u64,
    /// Bytes written to the output stream(s) by this rank.
    pub bytes_out: u64,
    /// Wall-clock duration of each timestep (begin-input to end-output).
    pub step_times: Vec<Duration>,
    /// Bytes read from the input stream(s) in each timestep, paired with
    /// `step_times` so per-step throughput divides matched quantities
    /// (chunk sizes vary across steps for Threshold/Select outputs).
    pub step_bytes_in: Vec<u64>,
    /// Total time blocked waiting on stream operations: input `begin_step`
    /// plus output backpressure.
    pub wait_time: Duration,
    /// Total time in the component's compute kernel.
    pub compute_time: Duration,
}

impl ComponentStats {
    /// Records one completed step: its wall-clock duration, the portion
    /// spent blocked on streams, the portion in the compute kernel, and the
    /// bytes read from the input stream(s) during it (also accumulated into
    /// [`ComponentStats::bytes_in`]).
    pub fn record_step(
        &mut self,
        total: Duration,
        wait: Duration,
        compute: Duration,
        bytes_in: u64,
    ) {
        self.steps += 1;
        self.step_times.push(total);
        self.step_bytes_in.push(bytes_in);
        self.bytes_in += bytes_in;
        self.wait_time += wait;
        self.compute_time += compute;
    }

    /// Folds a later attempt's accounting into this one — the supervisor
    /// calls this so a restarted component reports the union of all its
    /// attempts, not just the final one.
    ///
    /// Exact for `Restart` after a kill fault (which fires at the step
    /// boundary, before any stream call of the step): released steps are
    /// never re-produced, so merged counts equal a clean run's. A component
    /// that died *mid*-step may re-read that step's input after restart and
    /// slightly overcount `bytes_in`.
    pub fn absorb(&mut self, later: ComponentStats) {
        self.steps += later.steps;
        self.bytes_in += later.bytes_in;
        self.bytes_out += later.bytes_out;
        self.step_times.extend(later.step_times);
        self.step_bytes_in.extend(later.step_bytes_in);
        self.wait_time += later.wait_time;
        self.compute_time += later.compute_time;
    }

    /// Mean step completion time.
    pub fn mean_step_time(&self) -> Duration {
        if self.step_times.is_empty() {
            return Duration::ZERO;
        }
        self.step_times.iter().sum::<Duration>() / self.step_times.len() as u32
    }
}

/// A component's aggregated results: per-rank stats plus communicator-wide
/// summaries (the paper averages per-timestep times over the communicator).
#[derive(Debug, Clone)]
pub struct ComponentReport {
    /// Label the component was launched under.
    pub label: String,
    /// Ranks the component ran with.
    pub nranks: usize,
    /// Per-rank stats, indexed by rank.
    pub per_rank: Vec<ComponentStats>,
    /// Communicator-wide aggregate (sums of bytes, rank-mean times).
    pub stats: ComponentStats,
    /// Times the supervisor attempted the component (1 = no restarts).
    pub attempts: u32,
    /// How the component finished under supervision.
    pub outcome: ComponentOutcome,
}

impl ComponentReport {
    /// Builds the aggregate from per-rank stats.
    pub fn from_ranks(label: String, per_rank: Vec<ComponentStats>) -> ComponentReport {
        let nranks = per_rank.len();
        let steps = per_rank.iter().map(|s| s.steps).max().unwrap_or(0);
        let mut agg = ComponentStats {
            steps,
            bytes_in: per_rank.iter().map(|s| s.bytes_in).sum(),
            bytes_out: per_rank.iter().map(|s| s.bytes_out).sum(),
            step_times: Vec::with_capacity(steps as usize),
            step_bytes_in: Vec::with_capacity(steps as usize),
            wait_time: per_rank.iter().map(|s| s.wait_time).sum::<Duration>()
                / nranks.max(1) as u32,
            compute_time: per_rank.iter().map(|s| s.compute_time).sum::<Duration>()
                / nranks.max(1) as u32,
        };
        // Per-timestep completion time, averaged over the communicator;
        // per-timestep bytes, summed over it (matched pairs for Fig. 9).
        // Stats recorded without per-step bytes (a user component that
        // builds its own `ComponentStats` instead of running `run_steps`)
        // keep the aggregate vector empty so consumers fall back to the run
        // average.
        let have_step_bytes = per_rank.iter().any(|s| !s.step_bytes_in.is_empty());
        for step in 0..steps as usize {
            let times: Vec<Duration> = per_rank
                .iter()
                .filter_map(|s| s.step_times.get(step).copied())
                .collect();
            if !times.is_empty() {
                agg.step_times
                    .push(times.iter().sum::<Duration>() / times.len() as u32);
                if have_step_bytes {
                    agg.step_bytes_in.push(
                        per_rank
                            .iter()
                            .filter_map(|s| s.step_bytes_in.get(step).copied())
                            .sum(),
                    );
                }
            }
        }
        ComponentReport {
            label,
            nranks,
            per_rank,
            stats: agg,
            attempts: 1,
            outcome: ComponentOutcome::Completed,
        }
    }

    /// Attaches the supervisor's accounting (builder style).
    pub fn with_supervision(mut self, attempts: u32, outcome: ComponentOutcome) -> ComponentReport {
        self.attempts = attempts;
        self.outcome = outcome;
        self
    }

    /// Restarts the supervisor performed (attempts beyond the first).
    pub fn restarts(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }

    /// Per-process input throughput for one step, in KB/s — the metric of
    /// the paper's Fig. 9.
    ///
    /// Divides the bytes *this step* moved by the time *this step* took;
    /// pairing the run-average bytes-per-step with one step's time
    /// misreports whenever chunk sizes vary across steps (Threshold and
    /// Select outputs do). Falls back to the run average only for stats
    /// recorded without per-step bytes (a user component that does not run
    /// on [`crate::component::run_steps`]).
    pub fn per_process_throughput_kbs(&self, step: usize) -> Option<f64> {
        let t = self.stats.step_times.get(step)?.as_secs_f64();
        if t == 0.0 || self.stats.steps == 0 {
            return None;
        }
        let step_bytes = match self.stats.step_bytes_in.get(step) {
            Some(&b) => b as f64,
            None => self.stats.bytes_in as f64 / self.stats.steps as f64,
        };
        Some(step_bytes / 1024.0 / self.nranks as f64 / t)
    }
}

/// The result of running a whole workflow.
#[derive(Debug, Clone)]
pub struct WorkflowReport {
    /// Start-to-finish wall-clock time (all components launched together,
    /// measured to the last component's exit — the paper's end-to-end
    /// metric).
    pub elapsed: Duration,
    /// One report per component, in launch order.
    pub components: Vec<ComponentReport>,
    /// Final transfer counters of every stream in the workflow.
    pub streams: Vec<StreamMetrics>,
    /// The step timeline recorded during the run; empty unless tracing was
    /// enabled via `RunOptions::with_tracing` or `SB_TRACE=1`.
    pub timeline: Timeline,
    /// Reactive triggers that fired during the run, in firing order; empty
    /// unless the workflow declared [`crate::Trigger`]s.
    pub triggers: Vec<crate::triggers::TriggerFire>,
}

impl WorkflowReport {
    /// Looks a component up by label.
    pub fn component(&self, label: &str) -> Option<&ComponentReport> {
        self.components.iter().find(|c| c.label == label)
    }

    /// Total ranks across all components.
    pub fn total_ranks(&self) -> usize {
        self.components.iter().map(|c| c.nranks).sum()
    }

    /// Total restarts the supervisor performed across all components.
    pub fn restarts(&self) -> u32 {
        self.components.iter().map(|c| c.restarts()).sum()
    }

    /// Labels of components that finished degraded, in launch order.
    pub fn degraded(&self) -> Vec<&str> {
        self.components
            .iter()
            .filter(|c| matches!(c.outcome, ComponentOutcome::Degraded { .. }))
            .map(|c| c.label.as_str())
            .collect()
    }

    /// End-to-end per-process throughput in KB/s: total bytes produced by
    /// the named source stream, divided by total workflow processes and
    /// elapsed time — the last column of the paper's Table I.
    pub fn end_to_end_throughput_kbs(&self, source_stream: &str) -> Option<f64> {
        let bytes = self
            .streams
            .iter()
            .find(|m| m.stream == source_stream)?
            .bytes_written as f64;
        let denom = self.total_ranks() as f64 * self.elapsed.as_secs_f64();
        (denom > 0.0).then(|| bytes / 1024.0 / denom)
    }

    /// Checks that no component of a traced run is invisible on the
    /// timeline: every `(component, rank, step)` the report accounts for has
    /// exactly one `step` span, a nested `compute` span, and — uniformly
    /// across the component's ranks and steps — `wait` and/or `publish`
    /// spans matching its role (sources never wait on input, sinks never
    /// publish; a decimating component's skipped publish is an empty span).
    /// `Err` names the first site that falls short.
    pub fn validate_completeness(&self) -> Result<(), String> {
        use std::collections::BTreeMap;
        let tl = &self.timeline;
        // A label may name several component instances (GTCP wires two
        // Dim-Reduce stages), so expectations are counted per label: at
        // `(label, rank, step)` there must be one step span per instance that
        // has that rank and reached that step.
        let mut by_label: BTreeMap<&str, Vec<&ComponentReport>> = BTreeMap::new();
        for comp in &self.components {
            by_label.entry(comp.label.as_str()).or_default().push(comp);
        }
        for (label, comps) in by_label {
            let max_ranks = comps.iter().map(|c| c.nranks).max().unwrap_or(0);
            let max_steps = comps.iter().map(|c| c.stats.steps).max().unwrap_or(0);
            let has_wait = tl
                .events
                .iter()
                .any(|e| e.kind == EventKind::Wait && e.component == label);
            let has_publish = tl
                .events
                .iter()
                .any(|e| e.kind == EventKind::Publish && e.component == label);
            for rank in 0..max_ranks as u32 {
                for step in 0..max_steps {
                    let expected = comps
                        .iter()
                        .filter(|c| rank < c.nranks as u32 && step < c.stats.steps)
                        .count();
                    let at = |kind: EventKind| {
                        tl.events
                            .iter()
                            .filter(|e| {
                                e.kind == kind
                                    && e.component == label
                                    && e.rank == rank
                                    && e.step == step
                            })
                            .collect::<Vec<_>>()
                    };
                    let step_spans = at(EventKind::Step);
                    if step_spans.len() != expected {
                        return Err(format!(
                            "{label}/{rank} step {step}: {} step spans, want {expected}",
                            step_spans.len()
                        ));
                    }
                    let mut required = vec![EventKind::Compute];
                    if has_wait {
                        required.push(EventKind::Wait);
                    }
                    if has_publish {
                        required.push(EventKind::Publish);
                    }
                    for kind in required {
                        let inner = at(kind);
                        if expected > 0 && inner.is_empty() {
                            return Err(format!(
                                "{label}/{rank} step {step}: no {} span",
                                kind.name()
                            ));
                        }
                        // Every phase span must nest inside one of the step
                        // spans at this site.
                        for e in inner {
                            let nested = step_spans
                                .iter()
                                .any(|s| e.start >= s.start && e.end() <= s.end());
                            if !nested {
                                return Err(format!(
                                    "{label}/{rank} step {step}: {} span not nested in a step span",
                                    kind.name()
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// A human-readable run summary: one table of components, one of
    /// streams — what the examples print after a run.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "workflow: {} components, {} ranks, {:.3}s end to end\n\n",
            self.components.len(),
            self.total_ranks(),
            self.elapsed.as_secs_f64()
        );
        let rows: Vec<Vec<String>> = self
            .components
            .iter()
            .map(|c| {
                vec![
                    c.label.clone(),
                    c.nranks.to_string(),
                    c.stats.steps.to_string(),
                    format!("{}", c.stats.bytes_in),
                    format!("{}", c.stats.bytes_out),
                    format!("{:.2}ms", c.stats.mean_step_time().as_secs_f64() * 1e3),
                    format!("{:.2}ms", c.stats.wait_time.as_secs_f64() * 1e3),
                ]
            })
            .collect();
        out.push_str(&format_table(
            &[
                "component",
                "ranks",
                "steps",
                "in (B)",
                "out (B)",
                "step",
                "wait",
            ],
            &rows,
        ));
        out.push('\n');
        let restarts = self.restarts();
        let degraded = self.degraded();
        if restarts > 0 || !degraded.is_empty() {
            out.push_str(&format!(
                "supervision: {restarts} restart(s), degraded components: {degraded:?}\n\n"
            ));
        }
        let rows: Vec<Vec<String>> = self
            .streams
            .iter()
            .map(|s| {
                let codec = if s.wire_uncompressed_bytes == 0 {
                    "-".to_string()
                } else {
                    format!(
                        "{:.2}x",
                        s.wire_uncompressed_bytes as f64 / s.wire_compressed_bytes.max(1) as f64
                    )
                };
                vec![
                    s.stream.clone(),
                    s.steps_committed.to_string(),
                    format!("{}", s.bytes_written),
                    format!("{}", s.bytes_read),
                    format!("{}", s.wire_writer_bytes),
                    format!("{}", s.wire_reader_bytes),
                    codec,
                ]
            })
            .collect();
        out.push_str(&format_table(
            &[
                "stream",
                "steps",
                "written (B)",
                "read (B)",
                "wire w->b (B)",
                "wire b->r (B)",
                "codec",
            ],
            &rows,
        ));
        out
    }
}

/// Fixed-width table printer shared by the bench harness binaries.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_mean() {
        let mut s = ComponentStats::default();
        s.record_step(
            Duration::from_millis(10),
            Duration::from_millis(2),
            Duration::from_millis(5),
            100,
        );
        s.record_step(
            Duration::from_millis(20),
            Duration::from_millis(1),
            Duration::from_millis(9),
            300,
        );
        assert_eq!(s.steps, 2);
        assert_eq!(s.mean_step_time(), Duration::from_millis(15));
        assert_eq!(s.wait_time, Duration::from_millis(3));
        assert_eq!(s.compute_time, Duration::from_millis(14));
        assert_eq!(s.bytes_in, 400);
        assert_eq!(s.step_bytes_in, vec![100, 300]);
        assert_eq!(ComponentStats::default().mean_step_time(), Duration::ZERO);
    }

    #[test]
    fn absorb_merges_attempts() {
        let mut first = ComponentStats::default();
        first.record_step(
            Duration::from_millis(10),
            Duration::from_millis(1),
            Duration::from_millis(2),
            100,
        );
        first.bytes_out += 50;
        let mut second = ComponentStats::default();
        second.record_step(
            Duration::from_millis(30),
            Duration::from_millis(3),
            Duration::from_millis(4),
            300,
        );
        second.bytes_out += 150;
        first.absorb(second);
        assert_eq!(first.steps, 2);
        assert_eq!(first.bytes_in, 400);
        assert_eq!(first.bytes_out, 200);
        assert_eq!(first.step_bytes_in, vec![100, 300]);
        assert_eq!(first.step_times.len(), 2);
        assert_eq!(first.wait_time, Duration::from_millis(4));
        assert_eq!(first.compute_time, Duration::from_millis(6));
    }

    #[test]
    fn report_aggregates_over_ranks() {
        let mk = |bytes: u64, ms: u64| {
            let mut s = ComponentStats {
                bytes_out: bytes / 2,
                ..Default::default()
            };
            s.record_step(
                Duration::from_millis(ms),
                Duration::ZERO,
                Duration::ZERO,
                bytes / 2,
            );
            s.record_step(
                Duration::from_millis(ms * 2),
                Duration::ZERO,
                Duration::ZERO,
                bytes / 2,
            );
            s
        };
        let rep = ComponentReport::from_ranks("sel".into(), vec![mk(1000, 10), mk(3000, 30)]);
        assert_eq!(rep.nranks, 2);
        assert_eq!(rep.stats.steps, 2);
        assert_eq!(rep.stats.bytes_in, 4000);
        assert_eq!(rep.stats.bytes_out, 2000);
        // Step 0: mean(10, 30) = 20ms; step 1: mean(20, 60) = 40ms.
        assert_eq!(rep.stats.step_times[0], Duration::from_millis(20));
        assert_eq!(rep.stats.step_times[1], Duration::from_millis(40));
        // Both steps moved 2000 B across the communicator.
        assert_eq!(rep.stats.step_bytes_in, vec![2000, 2000]);
        // Throughput: step 0 moved 2000 B, per-proc = 1000, over 0.02s.
        let kbs = rep.per_process_throughput_kbs(0).unwrap();
        assert!((kbs - (1000.0 / 1024.0 / 0.02)).abs() < 1e-9);
    }

    #[test]
    fn throughput_pairs_each_step_with_its_own_bytes() {
        // Step 0 moves 4096 B in 10ms; step 1 moves 1024 B in 10ms. The
        // old average-based metric reported the same value for both.
        let mut s = ComponentStats::default();
        s.record_step(
            Duration::from_millis(10),
            Duration::ZERO,
            Duration::ZERO,
            4096,
        );
        s.record_step(
            Duration::from_millis(10),
            Duration::ZERO,
            Duration::ZERO,
            1024,
        );
        let rep = ComponentReport::from_ranks("thresh".into(), vec![s]);
        let kbs0 = rep.per_process_throughput_kbs(0).unwrap();
        let kbs1 = rep.per_process_throughput_kbs(1).unwrap();
        assert!((kbs0 - 4.0 / 0.01).abs() < 1e-9, "step 0: 4 KB in 10ms");
        assert!((kbs1 - 1.0 / 0.01).abs() < 1e-9, "step 1: 1 KB in 10ms");

        // Stats recorded without per-step bytes fall back to the average.
        let legacy = ComponentStats {
            steps: 2,
            bytes_in: 5120,
            step_times: vec![Duration::from_millis(10); 2],
            ..Default::default()
        };
        let rep = ComponentReport::from_ranks("sim".into(), vec![legacy]);
        let kbs = rep.per_process_throughput_kbs(0).unwrap();
        assert!((kbs - 2.5 / 0.01).abs() < 1e-9, "mean 2.5 KB in 10ms");
    }

    #[test]
    fn summary_renders_components_and_streams() {
        let rep = WorkflowReport {
            elapsed: Duration::from_millis(1234),
            components: vec![ComponentReport::from_ranks(
                "select".into(),
                vec![ComponentStats {
                    steps: 3,
                    bytes_in: 300,
                    bytes_out: 150,
                    ..Default::default()
                }],
            )],
            streams: vec![sb_stream::StreamMetrics {
                stream: "a.fp".into(),
                bytes_written: 300,
                bytes_read: 300,
                steps_committed: 3,
                steps_consumed: 3,
                writer_wait: Duration::ZERO,
                reader_wait: Duration::ZERO,
                bytes_copied: 300,
                copies_elided: 0,
                zero_fills_elided: 0,
                wire_writer_bytes: 0,
                wire_reader_bytes: 0,
                wire_shm_bytes: 0,
                wire_uncompressed_bytes: 0,
                wire_compressed_bytes: 0,
                bytes_on_wire: 0,
            }],
            timeline: Timeline::default(),
            triggers: Vec::new(),
        };
        let s = rep.summary();
        assert!(s.contains("1 components"));
        assert!(s.contains("select"));
        assert!(s.contains("a.fp"));
        assert!(s.contains("1.234s"));
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["Run", "Output (MB)", "Procs"],
            &[
                vec!["1".into(), "918.3".into(), "64".into()],
                vec!["5".into(), "12905.4".into(), "1024".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Output (MB)"));
        assert!(lines[3].contains("12905.4"));
        // All rows have equal width.
        assert_eq!(lines[0].len(), lines[2].len());
    }
}
