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

use sb_comm::Communicator;
use sb_sims::{
    GromacsConfig, GromacsSim, GtcpConfig, GtcpSim, LammpsConfig, LammpsSim, OutputContract,
    SimRank,
};
use sb_stream::StreamHub;

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
    /// Which mini code to run, and its configuration.
    config: SimConfig,
    /// Coarse I/O steps to publish.
    steps: u64,
    /// Fine substeps per published step.
    interval: u64,
    /// Output stream name.
    pub stream: String,
}

/// One mini code's typed configuration: only [`Simulation::try_param`]
/// sets it, so a simulation has exactly its code's six settable values.
#[derive(Debug, Clone)]
enum SimConfig {
    /// The mini-LAMMPS crack run.
    Lammps(LammpsConfig),
    /// The mini-GTCP torus.
    Gtcp(GtcpConfig),
    /// The mini-GROMACS chain system.
    Gromacs(GromacsConfig),
}

impl Simulation {
    /// A simulation with default parameters on its conventional stream.
    pub fn new(code: SimCode) -> Simulation {
        Simulation {
            config: match code {
                SimCode::Lammps => SimConfig::Lammps(LammpsConfig::default()),
                SimCode::Gtcp => SimConfig::Gtcp(GtcpConfig::default()),
                SimCode::Gromacs => SimConfig::Gromacs(GromacsConfig::default()),
            },
            steps: 5,
            interval: 10,
            stream: code.default_stream().to_string(),
        }
    }

    /// Which mini code this runs.
    pub fn code(&self) -> SimCode {
        match self.config {
            SimConfig::Lammps(_) => SimCode::Lammps,
            SimConfig::Gtcp(_) => SimCode::Gtcp,
            SimConfig::Gromacs(_) => SimCode::Gromacs,
        }
    }

    /// Sets one parameter from its text, one of the code's
    /// [`SimCode::params`]; `Err` names a key the code does not take or a
    /// value that does not parse. A launch line's parameters enter here.
    pub fn try_param(mut self, key: &str, value: impl ToString) -> Result<Simulation, String> {
        let value = value.to_string();
        let int = || parse_param::<usize>(key, &value, "an integer");
        let num = || parse_param::<f64>(key, &value, "a number");
        match (&mut self.config, key) {
            (_, "steps") => self.steps = int()? as u64,
            (_, "interval") => self.interval = int()? as u64,
            (SimConfig::Lammps(c), "seed") => c.seed = int()? as u64,
            (SimConfig::Lammps(c), "nx") => c.nx = int()?,
            (SimConfig::Lammps(c), "ny") => c.ny = int()?,
            (SimConfig::Lammps(c), "thermostat") => c.thermostat = Some(num()?),
            (SimConfig::Gtcp(c), "seed") => c.seed = int()? as u64,
            (SimConfig::Gtcp(c), "slices") => c.n_slices = int()?,
            (SimConfig::Gtcp(c), "points") => c.n_points = int()?,
            (SimConfig::Gtcp(c), "zonal") => c.zonal_damping = num()?,
            (SimConfig::Gromacs(c), "seed") => c.seed = int()? as u64,
            (SimConfig::Gromacs(c), "chains") => c.n_chains = int()?,
            (SimConfig::Gromacs(c), "len") => c.chain_len = int()?,
            (SimConfig::Gromacs(c), "angle") => c.angle_k = num()?,
            _ => {
                let code = self.code();
                return Err(format!(
                    "{} takes no parameter {key} (its parameters: {})",
                    code.name(),
                    code.params().join(" ")
                ));
            }
        }
        Ok(self)
    }

    /// [`Simulation::try_param`], panicking on its `Err` (builder style).
    pub fn param(self, key: &str, value: impl ToString) -> Simulation {
        self.try_param(key, value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Overrides the output stream name.
    pub fn on_stream(mut self, stream: impl Into<String>) -> Simulation {
        self.stream = stream.into();
        self
    }

    /// This rank's share of the configured simulation.
    fn rank_sim(&self, rank: usize, nranks: usize) -> Box<dyn SimRank> {
        match &self.config {
            SimConfig::Lammps(c) => Box::new(LammpsSim::new(c.clone(), rank, nranks)),
            SimConfig::Gtcp(c) => Box::new(GtcpSim::new(c.clone(), rank, nranks)),
            SimConfig::Gromacs(c) => Box::new(GromacsSim::new(c.clone(), rank, nranks)),
        }
    }
}

fn parse_param<T: std::str::FromStr>(key: &str, value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("simulation parameter {key}={value:?} is not {what}"))
}

impl Component for Simulation {
    fn label(&self) -> String {
        self.code().name().into()
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.stream.clone()]
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{ArraySpec, DimSpec, Extent, Signature, StepContract, StreamSpec};
        // Each mini code publishes its one contracted array; the source
        // declaration from which the analyzer propagates specs downstream.
        // LAMMPS's particle count is what survives the notch cut, so only
        // the data fixes it.
        let (contract, leading) = match &self.config {
            SimConfig::Lammps(_) => (sb_sims::lammps::OUTPUT, vec![Extent::Dynamic]),
            SimConfig::Gtcp(c) => (
                sb_sims::gtcp::OUTPUT,
                vec![Extent::Fixed(c.n_slices), Extent::Fixed(c.n_points)],
            ),
            SimConfig::Gromacs(c) => (sb_sims::gromacs::OUTPUT, vec![Extent::Fixed(c.n_atoms())]),
        };
        let extents = leading
            .into_iter()
            .chain([Extent::Fixed(contract.labels.len())]);
        let dims = contract
            .dims
            .iter()
            .zip(extents)
            .map(|(name, extent)| DimSpec {
                name: name.to_string(),
                extent,
            })
            .collect();
        let spec = ArraySpec::new(dims, OutputContract::DTYPE)
            .with_dim_labels(contract.labelled_dim(), contract.labels.iter().copied());
        let out = StreamSpec::known_one(contract.array, spec);
        Signature::new(Vec::new(), move |_ins| Ok(vec![out.clone()]))
            .with_steps(StepContract::Produces(self.steps))
    }

    /// A source on the one step loop: stream step k is the state after
    /// (k + 1) · `interval` substeps (paper §V-A). The count is of the
    /// stream step, not of this incarnation's steps, so a rank restarted at
    /// step s replays the first s · `interval` substeps from its seed
    /// without publishing, then publishes step s.
    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        let mut sim = self.rank_sim(comm.rank(), comm.size());
        let mut substeps = 0;
        run_steps(self, comm, hub, |io| {
            if io.step >= self.steps {
                return Ok(StepEnd::Done);
            }
            let start = Instant::now();
            while substeps < (io.step + 1) * self.interval {
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
    /// Simulation size parameters (`nx`, `slices`, `chains`, ...), each
    /// one of the preset's code's [`SimCode::params`].
    pub size_params: BTreeMap<String, usize>,
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
            wait_timeout: Duration::from_secs(120),
        }
    }
}

impl PresetScale {
    /// Sets a simulation size parameter. Building a preset whose code
    /// does not take `key` panics, as [`Simulation::param`] does.
    pub fn size(mut self, key: &str, value: usize) -> PresetScale {
        self.size_params.insert(key.into(), value);
        self
    }

    fn rank(&self, i: usize) -> usize {
        self.analysis_ranks.get(i).copied().unwrap_or(1).max(1)
    }

    fn simulation(&self, code: SimCode) -> Simulation {
        let mut sim = Simulation::new(code)
            .param("steps", self.io_steps)
            .param("interval", self.substeps);
        for (key, &value) in &self.size_params {
            sim = sim.param(key, value);
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
        ),
    );
    wf.add(
        scale.rank(1),
        Magnitude::new(("lmpselect.fp", "lmpsel"), ("velos.fp", "velocities")),
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
    /// Runs the bare simulation and returns its wall-clock time.
    pub fn run(&self) -> sb_comm::CommResult<Duration> {
        let start = Instant::now();
        sb_comm::launch_named("lammps-only", self.ranks, |comm| {
            let mut sim = self.sim.rank_sim(comm.rank(), comm.size());
            for _ in 0..self.sim.steps * self.sim.interval {
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
        Select::new(("gtcp.fp", "plasma"), 2, ["P_perp"], ("psel.fp", "pperp")),
    );
    wf.add(
        scale.rank(1),
        DimReduce::new(("psel.fp", "pperp"), 2, 1, ("dr1.fp", "flat2")),
    );
    wf.add(
        scale.rank(2),
        DimReduce::new(("dr1.fp", "flat2"), 0, 1, ("dr2.fp", "flat1")),
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
        Magnitude::new(("gromacs.fp", "coords"), ("gmag.fp", "radii")),
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
        assert_eq!(sized.size_params["nx"], 24);
        let SimConfig::Lammps(cfg) = sized.simulation(SimCode::Lammps).config else {
            panic!("a LAMMPS preset runs LAMMPS")
        };
        assert_eq!(cfg.nx, 24);
    }

    #[test]
    fn simulation_builder() {
        let sim = Simulation::new(SimCode::Gtcp)
            .param("slices", 8)
            .param("steps", 3)
            .on_stream("custom.fp");
        assert_eq!(sim.stream, "custom.fp");
        assert_eq!((sim.steps, sim.interval), (3, 10));
        let SimConfig::Gtcp(cfg) = &sim.config else {
            panic!("a GTCP simulation holds a GTCP config")
        };
        assert_eq!(cfg.n_slices, 8);
        assert_eq!(cfg.n_points, GtcpConfig::default().n_points);
        assert_eq!(sim.code(), SimCode::Gtcp);
        assert_eq!(sim.label(), "gtcp");
    }

    #[test]
    #[should_panic(expected = "not an integer")]
    fn bad_simulation_param_panics() {
        let _ = Simulation::new(SimCode::Lammps).param("nx", "forty");
    }

    /// Every code takes exactly its listed keys: each listed key parses a
    /// valid value, and a key listed for another code is refused, naming
    /// the keys this one takes.
    #[test]
    fn try_param_takes_each_codes_keys_and_no_other() {
        let codes = [SimCode::Lammps, SimCode::Gtcp, SimCode::Gromacs];
        for code in codes {
            for key in code.params() {
                assert!(Simulation::new(code).try_param(key, 3).is_ok(), "{key}");
            }
            for other in codes.iter().flat_map(|c| c.params()) {
                if !code.params().contains(other) {
                    let err = Simulation::new(code).try_param(other, 3).unwrap_err();
                    assert_eq!(
                        err,
                        format!(
                            "{} takes no parameter {other} (its parameters: {})",
                            code.name(),
                            code.params().join(" ")
                        )
                    );
                }
            }
        }
        let err = Simulation::new(SimCode::Gtcp)
            .try_param("slices", "abc")
            .unwrap_err();
        assert_eq!(err, "simulation parameter slices=\"abc\" is not an integer");
        let err = Simulation::new(SimCode::Lammps)
            .try_param("thermostat", "hot")
            .unwrap_err();
        assert_eq!(
            err,
            "simulation parameter thermostat=\"hot\" is not a number"
        );
    }

    /// The spec each code's signature declares is the one every rank
    /// publishes: `ArraySpec::of` each rank's chunk meta, with LAMMPS's
    /// particle extent left dynamic.
    #[test]
    fn signature_declares_what_each_rank_publishes() {
        use crate::analysis::{ArraySpec, Extent, StreamSpec};
        let sims = [
            Simulation::new(SimCode::Lammps)
                .param("nx", 8)
                .param("ny", 6),
            Simulation::new(SimCode::Gtcp)
                .param("slices", 5)
                .param("points", 4),
            Simulation::new(SimCode::Gromacs)
                .param("chains", 3)
                .param("len", 4),
        ];
        for sim in sims {
            let transfer = sim
                .signature()
                .transfer
                .expect("a source declares its output");
            let declared = transfer(&[]).unwrap();
            let [StreamSpec::Known(arrays)] = declared.as_slice() else {
                panic!("{}: one known output stream", sim.label())
            };
            for nranks in [1, 3] {
                for rank in 0..nranks {
                    let meta = sim.rank_sim(rank, nranks).output_chunk().meta;
                    let mut published = ArraySpec::of(&meta);
                    if sim.code() == SimCode::Lammps {
                        published.dims[0].extent = Extent::Dynamic;
                    }
                    assert_eq!(
                        arrays.get(&meta.name),
                        Some(&published),
                        "{} rank {rank} of {nranks}",
                        sim.label()
                    );
                }
            }
        }
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
