//! Shared helpers for the cross-crate integration tests: serial reference
//! computations the workflow outputs are checked against.

use sb_comm::launch;
use sb_data::{Buffer, Shape, Variable};
use sb_sims::{GtcpConfig, GtcpSim, LammpsConfig, LammpsSim, SimRank};
use smartblock::histogram::bin_counts;
use smartblock::HistogramResult;

/// The chaos seed: 41, or `SB_CHAOS_SEED`, so CI can sweep several fixed
/// seeds.
pub fn chaos_seed() -> u64 {
    std::env::var("SB_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(41)
}

/// Deterministic per-step coordinates for the chaos pipelines. Shared with
/// the `component_host` helper binary so a source running in another OS
/// process produces exactly the values an in-proc golden run produces.
pub fn chaos_coords(step: u64, rows: usize) -> Variable {
    let data: Vec<f64> = (0..rows * 3).map(|i| i as f64 + step as f64).collect();
    Variable::new(
        "coords",
        Shape::of(&[("n", rows), ("d", 3)]),
        Buffer::F64(data),
    )
    .unwrap()
}

/// Polls `cond` every few milliseconds and panics, naming `what`, if it is
/// still false after 20 s.
pub fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// Reference histogram of a value set: global min/max then equal-width
/// bins, exactly the Histogram component's contract.
pub fn reference_histogram(step: u64, values: &[f64], bins: usize) -> HistogramResult {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (a.min(v), b.max(v))
        });
    let (counts, nan_count) = bin_counts(values, min, max, bins);
    HistogramResult {
        step,
        min,
        max,
        counts,
        nan_count,
    }
}

/// Runs the mini-LAMMPS crack serially and returns, per coarse step, the
/// velocity magnitudes of every particle — the quantity the paper's LAMMPS
/// workflow histograms.
pub fn serial_lammps_magnitudes(cfg: LammpsConfig, io_steps: u64, substeps: u64) -> Vec<Vec<f64>> {
    launch(1, move |comm| {
        let mut sim = LammpsSim::new(cfg.clone(), 0, 1);
        let mut out = Vec::new();
        for _ in 0..io_steps {
            for _ in 0..substeps {
                sim.substep(&comm);
            }
            out.push(
                sim.velocities()
                    .iter()
                    .map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt())
                    .collect(),
            );
        }
        out
    })
    .unwrap()
    .remove(0)
}

/// Runs the mini-GTCP serially and returns, per coarse step, the
/// perpendicular pressure at every grid point of the torus.
pub fn serial_gtcp_pperp(cfg: GtcpConfig, io_steps: u64, substeps: u64) -> Vec<Vec<f64>> {
    launch(1, move |comm| {
        let mut sim = GtcpSim::new(cfg.clone(), 0, 1);
        let mut out = Vec::new();
        for _ in 0..io_steps {
            for _ in 0..substeps {
                sim.substep(&comm);
            }
            let chunk = sim.output_chunk();
            let nprops = sb_sims::gtcp::GTCP_PROPERTIES.len();
            let pperp: Vec<f64> = (0..chunk.data.len() / nprops)
                .map(|cell| {
                    chunk
                        .data
                        .get_f64(cell * nprops + sb_sims::gtcp::P_PERP_INDEX)
                })
                .collect();
            out.push(pperp);
        }
        out
    })
    .unwrap()
    .remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_histogram_bins_everything() {
        let r = reference_histogram(3, &[0.0, 1.0, 2.0, 3.0], 4);
        assert_eq!(r.step, 3);
        assert_eq!(r.total(), 4);
        assert_eq!(r.min, 0.0);
        assert_eq!(r.max, 3.0);
    }

    #[test]
    fn serial_runners_produce_per_step_values() {
        let mags = serial_lammps_magnitudes(
            LammpsConfig {
                nx: 8,
                ny: 8,
                ..LammpsConfig::default()
            },
            2,
            3,
        );
        assert_eq!(mags.len(), 2);
        assert!(!mags[0].is_empty());

        let pperp = serial_gtcp_pperp(
            GtcpConfig {
                n_slices: 4,
                n_points: 8,
                ..GtcpConfig::default()
            },
            2,
            3,
        );
        assert_eq!(pperp.len(), 2);
        assert_eq!(pperp[0].len(), 32);
    }
}
