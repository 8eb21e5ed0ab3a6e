//! The paper's three workflow presets, the simulation component wrapper,
//! and launch-entry instantiation.
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
use std::time::Duration;

use sb_comm::Communicator;
use sb_sims::{drive, GromacsConfig, GromacsSim, GtcpConfig, GtcpSim, LammpsConfig, LammpsSim};
use sb_stream::{StreamHub, WriterOptions};

use crate::component::Component;
use crate::error::{ComponentError, ComponentResult};
use crate::histogram::HistogramResult;
use crate::launch::{LaunchEntry, Program, SimCode};
use crate::metrics::ComponentStats;
use crate::runtime::Workflow;
use crate::{
    AllInOne, Combine, DimReduce, FileRead, FileWrite, Fork, Histogram, Magnitude, Reduce, Select,
    Stats, TemporalMean, Threshold, Transpose,
};

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
    /// the first one that does not parse. A launch description's params
    /// arrive as data, so the plan builder asks here before the workflow
    /// ever reads one; keys no code reads pass through.
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
                let defaults = GtcpConfig::default();
                (
                    "plasma",
                    ArraySpec::new(
                        vec![
                            DimSpec::fixed("toroidal", self.get("slices", defaults.n_slices)),
                            DimSpec::fixed("gridpoints", self.get("points", defaults.n_points)),
                            DimSpec::fixed("properties", sb_sims::gtcp::GTCP_PROPERTIES.len()),
                        ],
                        sb_data::DType::F64,
                    )
                    .with_dim_labels(2, sb_sims::gtcp::GTCP_PROPERTIES),
                )
            }
            SimCode::Gromacs => {
                let defaults = GromacsConfig::default();
                let atoms =
                    self.get("chains", defaults.n_chains) * self.get("len", defaults.chain_len);
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
        Signature::new(Vec::new(), move |_ins| Ok(vec![out.clone()])).with_steps(
            crate::analysis::StepContract::Produces(self.get("steps", 5) as u64),
        )
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        let io_steps = self.get("steps", 5) as u64;
        let substeps = self.get("interval", 10) as u64;
        let mut writer =
            hub.open_writer(&self.stream, comm.rank(), comm.size(), self.writer_options);
        let stats = match self.code {
            SimCode::Lammps => {
                let defaults = LammpsConfig::default();
                let cfg = LammpsConfig {
                    nx: self.get("nx", defaults.nx),
                    ny: self.get("ny", defaults.ny),
                    seed: self.get("seed", defaults.seed as usize) as u64,
                    thermostat: self
                        .params
                        .contains_key("thermostat")
                        .then(|| self.get_f64("thermostat", 0.0)),
                    ..defaults
                };
                let mut sim = LammpsSim::new(cfg, comm.rank(), comm.size());
                drive(&mut sim, comm, Some(&mut writer), io_steps, substeps)
            }
            SimCode::Gtcp => {
                let defaults = GtcpConfig::default();
                let cfg = GtcpConfig {
                    n_slices: self.get("slices", defaults.n_slices),
                    n_points: self.get("points", defaults.n_points),
                    seed: self.get("seed", defaults.seed as usize) as u64,
                    zonal_damping: self.get_f64("zonal", defaults.zonal_damping),
                    ..defaults
                };
                let mut sim = GtcpSim::new(cfg, comm.rank(), comm.size());
                drive(&mut sim, comm, Some(&mut writer), io_steps, substeps)
            }
            SimCode::Gromacs => {
                let defaults = GromacsConfig::default();
                let cfg = GromacsConfig {
                    n_chains: self.get("chains", defaults.n_chains),
                    chain_len: self.get("len", defaults.chain_len),
                    seed: self.get("seed", defaults.seed as usize) as u64,
                    angle_k: self.get_f64("angle", defaults.angle_k),
                    ..defaults
                };
                let mut sim = GromacsSim::new(cfg, comm.rank(), comm.size());
                drive(&mut sim, comm, Some(&mut writer), io_steps, substeps)
            }
        };
        let stats = match stats {
            Ok(s) => s,
            // `drive` has already abandoned the writer on this path.
            Err(source) => {
                return Err(ComponentError::Stream {
                    label: self.label(),
                    step: writer.current_step(),
                    source,
                })
            }
        };
        Ok(ComponentStats {
            steps: stats.io_steps,
            bytes_in: 0,
            bytes_out: stats.bytes_output,
            step_times: Vec::new(),
            step_bytes_in: Vec::new(),
            wait_time: stats.io_time,
            compute_time: stats.compute_time,
        })
    }
}

/// Parses the integer launch option `key`, when present.
fn option_usize(options: &BTreeMap<String, String>, key: &str) -> Result<Option<usize>, String> {
    options
        .get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{key}={v:?} is not an integer"))
        })
        .transpose()
}

/// Parses `options` into writer settings (`queue=`, `rendezvous=`,
/// `groups=`), starting from the default policy.
fn writer_options_from(options: &BTreeMap<String, String>) -> Result<WriterOptions, String> {
    let mut w = WriterOptions::default();
    if let Some(q) = option_usize(options, "queue")? {
        if q == 0 {
            return Err("queue depth must be at least 1".to_string());
        }
        w.queue_capacity = q;
    }
    if let Some(r) = options.get("rendezvous") {
        w.rendezvous = r == "1" || r == "true";
    }
    if let Some(g) = option_usize(options, "groups")? {
        if g == 0 {
            return Err("groups must be at least 1".to_string());
        }
        w.expected_reader_groups = g;
    }
    Ok(w)
}

/// Instantiates one launch entry as a boxed component, applying its
/// trailing options. `Err` carries the reason the component rejects its
/// arguments (zero bins, a non-integer option, a non-numeric simulation
/// parameter). Each rule lives with the component that owns it — a
/// constructor that can refuse has a `try_` form, called here; the
/// panicking form is that same check unwrapped — so a launch description
/// gets the programmatic API's wording without reaching its panic.
pub(crate) fn instantiate_entry(entry: &LaunchEntry) -> Result<Box<dyn Component>, String> {
    let opts = &entry.options;
    let group = opts.get("group").cloned();
    let wopts = writer_options_from(opts)?;
    macro_rules! finish {
        ($c:expr) => {{
            let mut c = $c;
            c.writer_options = wopts;
            if let Some(g) = group {
                c.reader_group = g;
            }
            Box::new(c)
        }};
    }
    Ok(match entry.program.clone() {
        Program::Select {
            input,
            dim_index,
            output,
            keep,
        } => finish!(Select::new(input, dim_index, keep, output)),
        Program::Magnitude { input, output } => finish!(Magnitude::new(input, output)),
        Program::DimReduce {
            input,
            remove,
            grow,
            output,
        } => finish!(DimReduce::new(input, remove, grow, output)),
        Program::Stats { input, output } => finish!(Stats::new(input, output)),
        Program::Reduce {
            input,
            dim,
            op,
            output,
        } => finish!(Reduce::new(input, dim, op, output)),
        Program::Threshold {
            input,
            predicate,
            output,
        } => finish!(Threshold::new(input, predicate, output)),
        Program::Transpose {
            input,
            perm,
            output,
        } => {
            finish!(Transpose::new(input, perm, output))
        }
        Program::TemporalMean {
            input,
            window,
            output,
        } => {
            let mut t = TemporalMean::try_new(input, window, output)?;
            if let Some(stride) = option_usize(opts, "stride")? {
                t = t.try_with_stride(stride)?;
            }
            finish!(t)
        }
        Program::Histogram {
            input,
            num_bins,
            output_file,
        } => {
            let mut h = Histogram::try_new(input, num_bins)?;
            if let Some(path) = output_file {
                h = h.with_output_file(path);
            }
            if let Some(g) = group {
                h = h.with_reader_group(g);
            }
            Box::new(h)
        }
        Program::Combine {
            left,
            op,
            right,
            output,
        } => {
            let mut c = Combine::new(left, op, right, output);
            c.writer_options = wopts;
            if let Some(g) = group {
                c.left_group = Some(g);
            }
            if let Some(g) = opts.get("rgroup") {
                c.right_group = Some(g.clone());
            }
            Box::new(c)
        }
        Program::Fork { input, outputs } => {
            Box::new(Fork::new(input, outputs).with_writer_options(wopts))
        }
        Program::AllInOne {
            input,
            num_bins,
            keep,
        } => {
            let mut a = AllInOne::try_new(input, keep, num_bins)?;
            if let Some(g) = group {
                a.reader_group = g;
            }
            Box::new(a)
        }
        Program::FileWrite { input, path } => Box::new(FileWrite::new(input, path)),
        Program::FileRead { path, output } => {
            let mut f = FileRead::new(path, output);
            f.writer_options = wopts;
            Box::new(f)
        }
        Program::Simulation {
            code,
            params,
            stdin: _,
        } => {
            let mut sim = Simulation::new(code);
            if let Some(stream) = params.get("stream") {
                sim.stream = stream.clone();
            }
            // Writer-policy params ride along with the physics params.
            sim.writer_options = writer_options_from(&params)?;
            sim.params = params;
            sim.check_params()?;
            Box::new(sim)
        }
    })
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
        scale: scale.clone(),
    }
}

/// A runnable simulation-only baseline (not a workflow: no streams at all).
#[derive(Debug, Clone)]
pub struct SimOnly {
    scale: PresetScale,
}

impl SimOnly {
    /// Runs the bare simulation and returns its wall-clock time.
    pub fn run(&self) -> sb_comm::CommResult<Duration> {
        let scale = self.scale.clone();
        let start = std::time::Instant::now();
        let nx = scale
            .size_params
            .get("nx")
            .and_then(|v| v.parse().ok())
            .unwrap_or(40);
        let ny = scale
            .size_params
            .get("ny")
            .and_then(|v| v.parse().ok())
            .unwrap_or(40);
        sb_comm::launch_named("lammps-only", scale.sim_ranks, move |comm| {
            let cfg = LammpsConfig {
                nx,
                ny,
                ..LammpsConfig::default()
            };
            let mut sim = LammpsSim::new(cfg, comm.rank(), comm.size());
            drive(&mut sim, &comm, None, scale.io_steps, scale.substeps)
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
