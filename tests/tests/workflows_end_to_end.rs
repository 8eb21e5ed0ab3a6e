//! End-to-end correctness of the three paper workflows: every workflow's
//! histogram output is checked against a serial reference computation of
//! the same quantity.

use sb_data::lock;
use sb_integration_tests::{reference_histogram, serial_gtcp_pperp, serial_lammps_magnitudes};
use sb_sims::{GtcpConfig, LammpsConfig};
use smartblock::prelude::*;
use smartblock::workflows::{
    gromacs_workflow, gtcp_workflow, lammps_aio_workflow, lammps_workflow, PresetScale,
};

fn small_lammps_scale() -> PresetScale {
    PresetScale {
        sim_ranks: 3,
        analysis_ranks: vec![2, 2, 2],
        io_steps: 3,
        substeps: 5,
        bins: 12,
        ..PresetScale::default()
    }
    .size("nx", 16)
    .size("ny", 16)
}

#[test]
fn lammps_workflow_matches_serial_reference() {
    let scale = small_lammps_scale();
    let (wf, results) = lammps_workflow(&scale);
    let report = wf.run_with(RunOptions::default()).unwrap();

    let cfg = LammpsConfig {
        nx: 16,
        ny: 16,
        ..LammpsConfig::default()
    };
    let reference = serial_lammps_magnitudes(cfg, scale.io_steps, scale.substeps);

    let got = lock(&results).clone();
    assert_eq!(got.len(), 3, "one histogram per coarse step");
    for (step, hist) in got.iter().enumerate() {
        let expect = reference_histogram(step as u64, &reference[step], scale.bins);
        assert!(
            (hist.min - expect.min).abs() < 1e-12 && (hist.max - expect.max).abs() < 1e-12,
            "step {step}: range [{}, {}] vs serial [{}, {}]",
            hist.min,
            hist.max,
            expect.min,
            expect.max
        );
        assert_eq!(hist.counts, expect.counts, "step {step} counts");
    }
    // Every component saw all three steps.
    for label in ["lammps", "select", "magnitude", "histogram"] {
        assert_eq!(report.component(label).unwrap().stats.steps, 3, "{label}");
    }
}

#[test]
fn gtcp_workflow_matches_serial_reference() {
    let scale = PresetScale {
        sim_ranks: 4,
        analysis_ranks: vec![3, 2, 2, 2],
        io_steps: 3,
        substeps: 4,
        bins: 10,
        ..PresetScale::default()
    }
    .size("slices", 12)
    .size("points", 16);

    let (wf, results) = gtcp_workflow(&scale);
    wf.run_with(RunOptions::default()).unwrap();

    let cfg = GtcpConfig {
        n_slices: 12,
        n_points: 16,
        ..GtcpConfig::default()
    };
    let reference = serial_gtcp_pperp(cfg, scale.io_steps, scale.substeps);

    let got = lock(&results).clone();
    assert_eq!(got.len(), 3);
    for (step, hist) in got.iter().enumerate() {
        let expect = reference_histogram(step as u64, &reference[step], scale.bins);
        assert_eq!(hist.counts, expect.counts, "step {step}");
        assert!((hist.min - expect.min).abs() < 1e-12);
        assert!((hist.max - expect.max).abs() < 1e-12);
        assert_eq!(hist.total() as usize, 12 * 16, "every grid point binned");
    }
}

#[test]
fn gromacs_workflow_shows_growing_spread() {
    let scale = PresetScale {
        sim_ranks: 2,
        analysis_ranks: vec![2, 1],
        io_steps: 4,
        substeps: 60,
        bins: 10,
        ..PresetScale::default()
    }
    .size("chains", 24)
    .size("len", 12);

    let (wf, results) = gromacs_workflow(&scale);
    wf.run_with(RunOptions::default()).unwrap();

    let got = lock(&results).clone();
    assert_eq!(got.len(), 4);
    for hist in &got {
        assert_eq!(hist.total() as usize, 24 * 12, "every atom binned");
    }
    // The spread of the atom cloud (max radius) grows under Langevin noise.
    assert!(
        got.last().unwrap().max > got.first().unwrap().max,
        "spread did not grow: {} -> {}",
        got.first().unwrap().max,
        got.last().unwrap().max
    );
}

#[test]
fn aio_and_componentized_pipelines_agree_exactly() {
    // The paper's §V-C comparison is only meaningful because both versions
    // compute the same thing; here we require bit-identical histograms.
    let scale = small_lammps_scale();
    let (wf, composed) = lammps_workflow(&scale);
    wf.run_with(RunOptions::default()).unwrap();
    let (wf, fused) = lammps_aio_workflow(&scale);
    wf.run_with(RunOptions::default()).unwrap();

    let a = lock(&composed).clone();
    let b = lock(&fused).clone();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.counts, y.counts, "step {}", x.step);
        assert_eq!(x.min, y.min);
        assert_eq!(x.max, y.max);
    }
}

#[test]
fn results_are_invariant_under_rank_counts() {
    // MxN freedom: the same workflow with different process counts per
    // component must produce identical analysis results.
    let base = PresetScale {
        sim_ranks: 2,
        analysis_ranks: vec![1, 1, 1, 1],
        io_steps: 2,
        substeps: 4,
        bins: 8,
        ..PresetScale::default()
    }
    .size("slices", 10)
    .size("points", 12);

    let (wf, first) = gtcp_workflow(&base);
    wf.run_with(RunOptions::default()).unwrap();
    let reference = lock(&first).clone();

    for ranks in [vec![2, 3, 2, 2], vec![4, 1, 3, 1]] {
        let scale = PresetScale {
            sim_ranks: 5,
            analysis_ranks: ranks.clone(),
            ..base.clone()
        };
        let (wf, results) = gtcp_workflow(&scale);
        wf.run_with(RunOptions::default()).unwrap();
        let got = lock(&results).clone();
        assert_eq!(got, reference, "ranks {ranks:?} changed the analysis");
    }
}

#[test]
fn histogram_file_endpoint_writes_parseable_output() {
    let dir = std::env::temp_dir().join(format!("sb_hist_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("velocities.txt");

    let scale = PresetScale {
        io_steps: 2,
        ..small_lammps_scale()
    };
    let (wf2, _results) = {
        let hub = sb_stream::StreamHub::new();
        let mut wf2 = smartblock::Workflow::with_hub(hub);
        wf2.add(
            1,
            smartblock::workflows::Simulation::new(smartblock::launch::SimCode::Gromacs)
                .param("chains", 8)
                .param("len", 8)
                .param("steps", scale.io_steps)
                .param("interval", 5),
        );
        wf2.add(
            1,
            smartblock::Magnitude::new(("gromacs.fp", "coords"), ("m.fp", "r")),
        );
        let h = smartblock::Histogram::new(("m.fp", "r"), 6).with_output_file(&path);
        let r = h.results_handle();
        wf2.add(1, h);
        (wf2, r)
    };
    wf2.run_with(RunOptions::default()).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let headers = text.lines().filter(|l| l.starts_with("# step")).count();
    assert_eq!(headers, 2, "one header per step:\n{text}");
    let data_lines = text.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(data_lines, 2 * 6, "six bins per step");
    // Counts per step sum to the atom count.
    for block in text.split("# step").skip(1) {
        let total: u64 = block
            .lines()
            .skip(1)
            .filter_map(|l| l.split_whitespace().nth(2))
            .filter_map(|c| c.parse::<u64>().ok())
            .sum();
        assert_eq!(total, 64, "atom count per step");
    }
    std::fs::remove_dir_all(&dir).ok();
}
