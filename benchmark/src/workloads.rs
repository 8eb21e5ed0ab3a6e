//! The workload table and the contract in `BENCHMARK.json`.
//!
//! `BENCHMARK.json` (repository root) is the single statement of metric
//! names, units, directions, bounds and each workload's reason for being;
//! it is compiled in, and the tests below hold this table to it.

use sb_stream::Compression;

use crate::capture::{CaptureSpec, Code};
use crate::json::Json;
use crate::pipeline::{Backend, Shape};

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Lattice side of the LAMMPS frames: 65 000-odd particles x 5 f64 columns,
/// 2.6 MB a step, larger than this class of host's L2.
pub const LAMMPS_NX: usize = 256;
/// 8192 chains x 16 beads = 131 072 atoms x 3 f64, 3.1 MB a step.
pub const GROMACS_CHAINS: usize = 8192;
const FRAMES: usize = 8;

/// Live LAMMPS: fine substeps per I/O step. Four puts the simulator at
/// well over nine tenths of the step, the Table II regime.
pub const LIVE_SUBSTEPS: u64 = 4;

pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Frames to capture: the replay feed, and the probes' input everywhere.
    pub capture: CaptureSpec,
    /// The source runs the simulator itself in place of replaying.
    pub live: bool,
    /// Steps per rep of a full report, sized for a rep of about three seconds.
    pub full_steps: u64,
    /// Steps per rep of a `--smoke` report.
    pub smoke_steps: u64,
}

const fn lammps_1x1(backend: Backend) -> Shape {
    Shape {
        code: Code::Lammps,
        backend,
        source_ranks: 1,
        select_ranks: 1,
        magnitude_ranks: 1,
        histogram_ranks: 1,
    }
}

const fn lammps_frames(frames: usize) -> CaptureSpec {
    CaptureSpec {
        code: Code::Lammps,
        size: LAMMPS_NX,
        frames,
        warm_substeps: 2,
        substeps: 1,
    }
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "lammps.replay.inproc",
        shape: lammps_1x1(Backend::InProc),
        capture: lammps_frames(FRAMES),
        live: false,
        full_steps: 3000,
        smoke_steps: 60,
    },
    Workload {
        name: "lammps.replay.tcp",
        shape: lammps_1x1(Backend::Tcp(Compression::None)),
        capture: lammps_frames(FRAMES),
        live: false,
        full_steps: 550,
        smoke_steps: 24,
    },
    Workload {
        name: "lammps.replay.shm",
        shape: lammps_1x1(Backend::Shm),
        capture: lammps_frames(FRAMES),
        live: false,
        full_steps: 400,
        smoke_steps: 24,
    },
    Workload {
        name: "gromacs.mxn.tcp-lz",
        shape: Shape {
            code: Code::Gromacs,
            backend: Backend::Tcp(Compression::Lz),
            source_ranks: 2,
            select_ranks: 0,
            magnitude_ranks: 3,
            histogram_ranks: 1,
        },
        capture: CaptureSpec {
            code: Code::Gromacs,
            size: GROMACS_CHAINS,
            frames: FRAMES,
            warm_substeps: 4,
            substeps: 1,
        },
        live: false,
        full_steps: 90,
        smoke_steps: 12,
    },
    Workload {
        name: "lammps.live",
        shape: Shape {
            source_ranks: 2,
            ..lammps_1x1(Backend::InProc)
        },
        // Two frames feed the probes; the pipeline's input is the live run.
        capture: lammps_frames(2),
        live: true,
        full_steps: 40,
        smoke_steps: 6,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The in-proc twin of a remote workload: same frames, same pipeline, no
/// wire. `remote_hop_ms_step` is the difference of the two step periods.
pub fn inproc_twin(shape: &Shape) -> Shape {
    Shape {
        backend: Backend::InProc,
        ..*shape
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
}

pub struct Contract {
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    /// `(name, why)` per workload, in file order.
    pub workloads: Vec<(String, String)>,
}

fn text(obj: &Json, key: &str) -> String {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks the string field {key:?}"))
        .to_string()
}

impl Contract {
    pub fn load() -> Contract {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| {
            doc.get(key)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key:?}"))
                .as_arr()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            list(key)
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Contract {
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
            workloads: list("workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
        }
    }

    pub fn why(&self, workload: &str) -> &str {
        self.workloads
            .iter()
            .find(|(name, _)| name == workload)
            .map_or("", |(_, why)| why)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn workload_names_agree_with_the_contract() {
        let contract = Contract::load();
        let declared: Vec<&str> = contract.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let table: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, table);
        for (name, why) in &contract.workloads {
            assert!(well_formed(name), "{name}");
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{name}: {why}"
            );
        }
    }

    #[test]
    fn metric_names_units_and_bounds_are_well_formed() {
        let contract = Contract::load();
        let mut seen = std::collections::BTreeSet::new();
        for m in contract.end_to_end.iter().chain(&contract.per_layer) {
            assert!(well_formed(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} is declared twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        for m in &contract.end_to_end {
            let bound = m.bound.expect("every end-to-end metric fixes its bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        assert!(contract.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = contract
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = contract
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }
}
