//! The paper's three workflow presets and the simulation component
//! wrapper.
//!
//! Figures 5–7 of the paper define the pipelines:
//!
//! * **LAMMPS**: sim → Select(vx,vy,vz) → Magnitude → Histogram
//! * **GTCP**:   sim → Select(P_perp) → Dim-Reduce → Dim-Reduce → Histogram
//! * **GROMACS**: sim → Magnitude → Histogram
//!
//! The presets here build those exact pipelines with configurable process
//! counts and problem sizes, using the same stream/array names as the
//! paper's Fig. 8 where it gives them.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sb_comm::{CommError, Communicator};
use sb_sims::{GromacsConfig, GromacsSim, GtcpConfig, GtcpSim, LammpsConfig, LammpsSim, SimRank};
use sb_stream::{StreamHub, WriterOptions};

use crate::component::{run_steps, Component, StepEnd};
use crate::error::ComponentResult;
use crate::histogram::HistogramResult;
use crate::launch::SimCode;
use crate::runtime::Workflow;
use crate::{AllInOne, DimReduce, Histogram, Magnitude, Select};

/// A simulation driver as a workflow component: the "driving scientific
/// code" slot of every paper workflow.
#[derive(Debug, Clone)]
pub struct Simulation {
    /// Which mini code to run.
    pub code: SimCode,
    /// `key=value` overrides (`steps`, `interval`, `seed`, size keys).
    pub params: BTreeMap<String, String>,
    /// Output stream name.
    pub stream: String,
    /// Output buffering policy.
    pub writer_options: WriterOptions,
}

impl Simulation {
    /// A simulation with default parameters on its conventional stream.
    pub fn new(code: SimCode) -> Simulation {
        Simulation {
            code,
            params: BTreeMap::new(),
            stream: code.default_stream().to_string(),
            writer_options: WriterOptions::default(),
        }
    }

    /// Sets one `key=value` parameter (builder style).
    pub fn param(mut self, key: &str, value: impl ToString) -> Simulation {
        self.params.insert(key.to_string(), value.to_string());
        self
    }

    /// Overrides the output stream name.
    pub fn on_stream(mut self, stream: impl Into<String>) -> Simulation {
        self.stream = stream.into();
        self
    }

    /// Overrides the output buffering policy.
    pub fn with_writer_options(mut self, options: WriterOptions) -> Simulation {
        self.writer_options = options;
        self
    }

    /// Checks every numeric parameter the simulation will read: `Err` is
    /// the first one that does not parse. A launch entry's options arrive
    /// as data and become these parameters, so
    /// [`LaunchEntry::build`](crate::LaunchEntry::build) asks here before
    /// the workflow ever reads one; keys no code reads pass through.
    pub fn check_params(&self) -> Result<(), String> {
        for (key, value) in &self.params {
            if INT_PARAMS.contains(&key.as_str()) {
                parse_param::<usize>(key, value, "an integer")?;
            } else if FLOAT_PARAMS.contains(&key.as_str()) {
                parse_param::<f64>(key, value, "a number")?;
            }
        }
        Ok(())
    }

    fn get(&self, key: &str, default: usize) -> usize {
        debug_assert!(INT_PARAMS.contains(&key), "{key} missing from INT_PARAMS");
        match self.params.get(key) {
            None => default,
            Some(v) => parse_param(key, v, "an integer").unwrap_or_else(|e| panic!("{e}")),
        }
    }

    fn get_f64(&self, key: &str, default: f64) -> f64 {
        debug_assert!(
            FLOAT_PARAMS.contains(&key),
            "{key} missing from FLOAT_PARAMS"
        );
        match self.params.get(key) {
            None => default,
            Some(v) => parse_param(key, v, "a number").unwrap_or_else(|e| panic!("{e}")),
        }
    }

    fn seed(&self, default: u64) -> u64 {
        self.get("seed", default as usize) as u64
    }

    fn gtcp_config(&self) -> GtcpConfig {
        let defaults = GtcpConfig::default();
        GtcpConfig {
            n_slices: self.get("slices", defaults.n_slices),
            n_points: self.get("points", defaults.n_points),
            seed: self.seed(defaults.seed),
            zonal_damping: self.get_f64("zonal", defaults.zonal_damping),
            ..defaults
        }
    }

    fn gromacs_config(&self) -> GromacsConfig {
        let defaults = GromacsConfig::default();
        GromacsConfig {
            n_chains: self.get("chains", defaults.n_chains),
            chain_len: self.get("len", defaults.chain_len),
            seed: self.seed(defaults.seed),
            angle_k: self.get_f64("angle", defaults.angle_k),
            ..defaults
        }
    }

    /// This rank's share of the configured simulation: the one place the
    /// parameters become a code's configuration.
    fn rank_sim(&self, rank: usize, nranks: usize) -> Box<dyn SimRank> {
        match self.code {
            SimCode::Lammps => {
                let defaults = LammpsConfig::default();
                let cfg = LammpsConfig {
                    nx: self.get("nx", defaults.nx),
                    ny: self.get("ny", defaults.ny),
                    seed: self.seed(defaults.seed),
                    thermostat: self
                        .params
                        .contains_key("thermostat")
                        .then(|| self.get_f64("thermostat", 0.0)),
                    ..defaults
                };
                Box::new(LammpsSim::new(cfg, rank, nranks))
            }
            SimCode::Gtcp => Box::new(GtcpSim::new(self.gtcp_config(), rank, nranks)),
            SimCode::Gromacs => Box::new(GromacsSim::new(self.gromacs_config(), rank, nranks)),
        }
    }

    /// Coarse I/O steps, and fine substeps per step.
    fn schedule(&self) -> (u64, u64) {
        (self.get("steps", 5) as u64, self.get("interval", 10) as u64)
    }
}

/// The parameters [`Simulation`] reads as integers, and as floats.
/// `get`/`get_f64` assert their key is listed, so
/// [`Simulation::check_params`] covers every read.
const INT_PARAMS: &[&str] = &[
    "steps", "interval", "seed", "nx", "ny", "slices", "points", "chains", "len",
];
const FLOAT_PARAMS: &[&str] = &["thermostat", "zonal", "angle"];

fn parse_param<T: std::str::FromStr>(key: &str, value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("simulation parameter {key}={value:?} is not {what}"))
}

impl Component for Simulation {
    fn label(&self) -> String {
        match self.code {
            SimCode::Lammps => "lammps".into(),
            SimCode::Gtcp => "gtcp".into(),
            SimCode::Gromacs => "gromacs".into(),
        }
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.stream.clone()]
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{ArraySpec, DimSpec, Signature, StreamSpec};
        // Each mini code publishes one self-describing array whose shape is
        // fully determined by its configuration — the source declaration
        // from which the analyzer propagates specs downstream.
        let (array, spec) = match self.code {
            SimCode::Lammps => (
                "atoms",
                ArraySpec::new(
                    vec![DimSpec::dynamic("particles"), DimSpec::fixed("props", 5)],
                    sb_data::DType::F64,
                )
                .with_dim_labels(1, ["ID", "Type", "vx", "vy", "vz"]),
            ),
            SimCode::Gtcp => {
                let cfg = self.gtcp_config();
                (
                    "plasma",
                    ArraySpec::new(
                        vec![
                            DimSpec::fixed("toroidal", cfg.n_slices),
                            DimSpec::fixed("gridpoints", cfg.n_points),
                            DimSpec::fixed("properties", sb_sims::gtcp::GTCP_PROPERTIES.len()),
                        ],
                        sb_data::DType::F64,
                    )
                    .with_dim_labels(2, sb_sims::gtcp::GTCP_PROPERTIES),
                )
            }
            SimCode::Gromacs => {
                let cfg = self.gromacs_config();
                let atoms = cfg.n_chains * cfg.chain_len;
                (
                    "coords",
                    ArraySpec::new(
                        vec![DimSpec::fixed("atoms", atoms), DimSpec::fixed("coords", 3)],
                        sb_data::DType::F64,
                    )
                    .with_dim_labels(1, ["x", "y", "z"]),
                )
            }
        };
        let out = StreamSpec::known_one(array, spec);
        Signature::new(Vec::new(), move |_ins| Ok(vec![out.clone()]))
            .with_steps(crate::analysis::StepContract::Produces(self.schedule().0))
    }

    /// A source on the one step loop: stream step k is the state after
    /// (k + 1) · `interval` substeps (paper §V-A). The count is of the
    /// stream step, not of this incarnation's steps, so a rank restarted at
    /// step s replays the first s · `interval` substeps from its seed
    /// without publishing, then publishes step s.
    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        let (steps, interval) = self.schedule();
        let mut sim = self.rank_sim(comm.rank(), comm.size());
        let mut substeps = 0;
        run_steps(self, self.writer_options, comm, hub, |io| {
            if io.step >= steps {
                return Ok(StepEnd::Done);
            }
            let start = Instant::now();
            while substeps < (io.step + 1) * interval {
                sim.substep(io.comm);
                substeps += 1;
            }
            io.put(0, sim.output_chunk());
            Ok(StepEnd::Publish {
                bytes_in: 0,
                compute: start.elapsed(),
            })
        })
    }
}

/// Process counts and problem size of one preset workflow run.
#[derive(Debug, Clone)]
pub struct PresetScale {
    /// Ranks for the driving simulation.
    pub sim_ranks: usize,
    /// Ranks for each analysis component, in pipeline order.
    pub analysis_ranks: Vec<usize>,
    /// Coarse output steps.
    pub io_steps: u64,
    /// Fine substeps per output step.
    pub substeps: u64,
    /// Histogram bins.
    pub bins: usize,
    /// Simulation size parameters (`nx`, `slices`, `chains`, ...).
    pub size_params: BTreeMap<String, String>,
    /// Writer buffering for every stream in the workflow.
    pub writer_options: WriterOptions,
    /// Hub wait timeout (bench harnesses shorten it).
    pub wait_timeout: Duration,
}

impl Default for PresetScale {
    fn default() -> Self {
        PresetScale {
            sim_ranks: 4,
            analysis_ranks: vec![2, 2, 1],
            io_steps: 4,
            substeps: 5,
            bins: 16,
            size_params: BTreeMap::new(),
            writer_options: WriterOptions::default(),
            wait_timeout: Duration::from_secs(120),
        }
    }
}

impl PresetScale {
    /// Sets a simulation size parameter.
    pub fn size(mut self, key: &str, value: usize) -> PresetScale {
        self.size_params.insert(key.into(), value.to_string());
        self
    }

    fn rank(&self, i: usize) -> usize {
        self.analysis_ranks.get(i).copied().unwrap_or(1).max(1)
    }

    fn simulation(&self, code: SimCode) -> Simulation {
        let mut sim = Simulation::new(code)
            .param("steps", self.io_steps)
            .param("interval", self.substeps)
            .with_writer_options(self.writer_options);
        for (k, v) in &self.size_params {
            sim = sim.param(k, v.clone());
        }
        sim
    }
}

/// Fig. 5: LAMMPS → Select(vx,vy,vz) → Magnitude → Histogram, using the
/// paper's Fig. 8 stream names. Returns the workflow and a handle to the
/// per-step histograms.
pub fn lammps_workflow(scale: &PresetScale) -> (Workflow, Arc<Mutex<Vec<HistogramResult>>>) {
    lammps_workflow_on(StreamHub::with_timeout(scale.wait_timeout), scale)
}

/// [`lammps_workflow`] on a caller-supplied hub — e.g. one from
/// [`StreamHub::connect`], so the same preset runs over the TCP backend (the
/// caller owns the hub's timeout).
pub fn lammps_workflow_on(
    hub: Arc<StreamHub>,
    scale: &PresetScale,
) -> (Workflow, Arc<Mutex<Vec<HistogramResult>>>) {
    let mut wf = Workflow::with_hub(hub);
    wf.add(scale.sim_ranks, scale.simulation(SimCode::Lammps));
    wf.add(
        scale.rank(0),
        Select::new(
            ("dump.custom.fp", "atoms"),
            1,
            ["vx", "vy", "vz"],
            ("lmpselect.fp", "lmpsel"),
        )
        .with_writer_options(scale.writer_options),
    );
    wf.add(
        scale.rank(1),
        Magnitude::new(("lmpselect.fp", "lmpsel"), ("velos.fp", "velocities"))
            .with_writer_options(scale.writer_options),
    );
    let hist = Histogram::new(("velos.fp", "velocities"), scale.bins);
    let results = hist.results_handle();
    wf.add(scale.rank(2), hist);
    (wf, results)
}

/// §V-C: the same LAMMPS run analyzed by the fused all-in-one component.
pub fn lammps_aio_workflow(scale: &PresetScale) -> (Workflow, Arc<Mutex<Vec<HistogramResult>>>) {
    let mut wf = Workflow::with_hub(StreamHub::with_timeout(scale.wait_timeout));
    wf.add(scale.sim_ranks, scale.simulation(SimCode::Lammps));
    let aio = AllInOne::new(("dump.custom.fp", "atoms"), ["vx", "vy", "vz"], scale.bins);
    let results = aio.results_handle();
    wf.add(scale.rank(0), aio);
    (wf, results)
}

/// The Table II third column: the simulation alone, output routines removed.
pub fn lammps_sim_only(scale: &PresetScale) -> SimOnly {
    SimOnly {
        sim: scale.simulation(SimCode::Lammps),
        ranks: scale.sim_ranks,
    }
}

/// A runnable simulation-only baseline (not a workflow: no streams at all):
/// the preset's own simulation, every substep and no output.
#[derive(Debug, Clone)]
pub struct SimOnly {
    sim: Simulation,
    ranks: usize,
}

impl SimOnly {
    /// Runs the bare simulation and returns its wall-clock time. A
    /// parameter that does not parse is refused before launch, naming it.
    pub fn run(&self) -> sb_comm::CommResult<Duration> {
        self.sim
            .check_params()
            .map_err(|issue| CommError::InvalidWorkflow {
                issues: vec![issue],
            })?;
        let (steps, interval) = self.sim.schedule();
        let start = Instant::now();
        sb_comm::launch_named("lammps-only", self.ranks, |comm| {
            let mut sim = self.sim.rank_sim(comm.rank(), comm.size());
            for _ in 0..steps * interval {
                sim.substep(&comm);
            }
        })?;
        Ok(start.elapsed())
    }
}

/// Fig. 6: GTCP → Select(P_perp) → Dim-Reduce → Dim-Reduce → Histogram.
pub fn gtcp_workflow(scale: &PresetScale) -> (Workflow, Arc<Mutex<Vec<HistogramResult>>>) {
    gtcp_workflow_on(StreamHub::with_timeout(scale.wait_timeout), scale)
}

/// [`gtcp_workflow`] on a caller-supplied hub (e.g. a TCP-connected one).
pub fn gtcp_workflow_on(
    hub: Arc<StreamHub>,
    scale: &PresetScale,
) -> (Workflow, Arc<Mutex<Vec<HistogramResult>>>) {
    let mut wf = Workflow::with_hub(hub);
    wf.add(scale.sim_ranks, scale.simulation(SimCode::Gtcp));
    wf.add(
        scale.rank(0),
        Select::new(("gtcp.fp", "plasma"), 2, ["P_perp"], ("psel.fp", "pperp"))
            .with_writer_options(scale.writer_options),
    );
    wf.add(
        scale.rank(1),
        DimReduce::new(("psel.fp", "pperp"), 2, 1, ("dr1.fp", "flat2"))
            .with_writer_options(scale.writer_options),
    );
    wf.add(
        scale.rank(2),
        DimReduce::new(("dr1.fp", "flat2"), 0, 1, ("dr2.fp", "flat1"))
            .with_writer_options(scale.writer_options),
    );
    let hist = Histogram::new(("dr2.fp", "flat1"), scale.bins);
    let results = hist.results_handle();
    wf.add(scale.rank(3), hist);
    (wf, results)
}

/// Fig. 7: GROMACS → Magnitude → Histogram (spread of the atoms).
pub fn gromacs_workflow(scale: &PresetScale) -> (Workflow, Arc<Mutex<Vec<HistogramResult>>>) {
    gromacs_workflow_on(StreamHub::with_timeout(scale.wait_timeout), scale)
}

/// [`gromacs_workflow`] on a caller-supplied hub (e.g. a TCP-connected one).
pub fn gromacs_workflow_on(
    hub: Arc<StreamHub>,
    scale: &PresetScale,
) -> (Workflow, Arc<Mutex<Vec<HistogramResult>>>) {
    let mut wf = Workflow::with_hub(hub);
    wf.add(scale.sim_ranks, scale.simulation(SimCode::Gromacs));
    wf.add(
        scale.rank(0),
        Magnitude::new(("gromacs.fp", "coords"), ("gmag.fp", "radii"))
            .with_writer_options(scale.writer_options),
    );
    let hist = Histogram::new(("gmag.fp", "radii"), scale.bins);
    let results = hist.results_handle();
    wf.add(scale.rank(1), hist);
    (wf, results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_scale_defaults_are_sane() {
        let s = PresetScale::default();
        assert_eq!(s.rank(0), 2);
        assert_eq!(s.rank(7), 1); // out of range -> 1
        let sized = s.size("nx", 24);
        assert_eq!(sized.size_params["nx"], "24");
    }

    #[test]
    fn simulation_builder() {
        let sim = Simulation::new(SimCode::Gtcp)
            .param("slices", 8)
            .on_stream("custom.fp");
        assert_eq!(sim.stream, "custom.fp");
        assert_eq!(sim.get("slices", 1), 8);
        assert_eq!(sim.get("points", 3), 3);
        assert!(sim.check_params().is_ok());
        assert_eq!(sim.label(), "gtcp");
    }

    #[test]
    #[should_panic(expected = "not an integer")]
    fn bad_simulation_param_panics() {
        let sim = Simulation::new(SimCode::Lammps).param("nx", "forty");
        assert_eq!(
            sim.check_params().unwrap_err(),
            "simulation parameter nx=\"forty\" is not an integer"
        );
        let _ = sim.get("nx", 40);
    }

    #[test]
    fn sim_only_refuses_a_parameter_that_does_not_parse() {
        let mut scale = PresetScale {
            sim_ranks: 1,
            io_steps: 1,
            substeps: 1,
            ..PresetScale::default()
        };
        scale.size_params.insert("nx".into(), "forty".into());
        let err = lammps_sim_only(&scale).run().unwrap_err();
        assert!(err.to_string().contains("nx=\"forty\""), "{err}");
    }

    #[test]
    fn workflow_presets_have_expected_shapes() {
        let scale = PresetScale::default();
        let (wf, _) = lammps_workflow(&scale);
        assert_eq!(
            wf.labels(),
            vec!["lammps", "select", "magnitude", "histogram"]
        );
        let scale = PresetScale {
            analysis_ranks: vec![2, 2, 2, 1],
            ..PresetScale::default()
        };
        let (wf, _) = gtcp_workflow(&scale);
        assert_eq!(
            wf.labels(),
            vec!["gtcp", "select", "dim-reduce", "dim-reduce-2", "histogram"]
        );
        let (wf, _) = gromacs_workflow(&PresetScale::default());
        assert_eq!(wf.labels(), vec!["gromacs", "magnitude", "histogram"]);
        let (wf, _) = lammps_aio_workflow(&PresetScale::default());
        assert_eq!(wf.labels(), vec!["lammps", "all-in-one"]);
    }
}
