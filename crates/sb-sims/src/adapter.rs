//! ADIOS-style group configurations for the three simulations.
//!
//! The paper reports that instrumenting each simulation took "roughly 70
//! lines of code … along with an approximately 25-line XML file". The
//! output code is each simulation's `output_chunk`, which the workflow's
//! simulation component publishes once per I/O step; the XML files are the
//! documents below, parsed by
//! [`sb_data::GroupConfig`]. They are what a launch script (or a test)
//! consults to know each code's output contract without touching the
//! simulation source.

use sb_data::{DataResult, GroupConfig};

/// Output group declaration of the mini-LAMMPS crack run.
pub const LAMMPS_GROUP_XML: &str = r#"
<adios-group name="lammps-crack">
  <!-- per-particle dump, one row per particle -->
  <var name="atoms" type="f64" dimensions="particles,props"/>
  <header var="atoms" dim="1" labels="ID,Type,vx,vy,vz"/>
  <attribute var="atoms" name="units" value="lj"/>
  <attribute var="atoms" name="pairstyle" value="lj/cut 2.5"/>
</adios-group>
"#;

/// Output group declaration of the mini-GTCP torus.
pub const GTCP_GROUP_XML: &str = r#"
<adios-group name="gtcp-torus">
  <!-- toroidal slices x grid points x 7 plasma properties -->
  <var name="plasma" type="f64" dimensions="toroidal,gridpoints,properties"/>
  <header var="plasma" dim="2" labels="density,T_par,T_perp,potential,P_par,P_perp,energy_flux"/>
  <attribute var="plasma" name="geometry" value="torus"/>
</adios-group>
"#;

/// Output group declaration of the mini-GROMACS chain system.
pub const GROMACS_GROUP_XML: &str = r#"
<adios-group name="gromacs-chains">
  <!-- atom coordinates, one row per atom -->
  <var name="coords" type="f64" dimensions="atoms,coords"/>
  <header var="coords" dim="1" labels="x,y,z"/>
  <attribute var="coords" name="integrator" value="langevin"/>
</adios-group>
"#;

/// Parses the LAMMPS group declaration.
pub fn lammps_group() -> DataResult<GroupConfig> {
    GroupConfig::parse(LAMMPS_GROUP_XML)
}

/// Parses the GTCP group declaration.
pub fn gtcp_group() -> DataResult<GroupConfig> {
    GroupConfig::parse(GTCP_GROUP_XML)
}

/// Parses the GROMACS group declaration.
pub fn gromacs_group() -> DataResult<GroupConfig> {
    GroupConfig::parse(GROMACS_GROUP_XML)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRank;

    #[test]
    fn all_three_groups_parse() {
        assert_eq!(lammps_group().unwrap().name, "lammps-crack");
        assert_eq!(gtcp_group().unwrap().name, "gtcp-torus");
        assert_eq!(gromacs_group().unwrap().name, "gromacs-chains");
    }

    #[test]
    fn group_declarations_match_simulation_output() {
        // The config-described metadata must agree with what each sim
        // actually emits: same shape rank, labels and dtype.
        let lmp = crate::LammpsSim::new(crate::LammpsConfig::default(), 0, 1);
        let chunk = lmp.output_chunk();
        let meta = lammps_group()
            .unwrap()
            .describe("atoms", &chunk.meta.shape.sizes())
            .unwrap();
        assert_eq!(meta.labels, chunk.meta.labels);
        assert_eq!(meta.dtype, chunk.meta.dtype);

        let gtc = crate::GtcpSim::new(crate::GtcpConfig::default(), 0, 1);
        let chunk = gtc.output_chunk();
        let meta = gtcp_group()
            .unwrap()
            .describe("plasma", &chunk.meta.shape.sizes())
            .unwrap();
        assert_eq!(meta.labels, chunk.meta.labels);

        let gmx = crate::GromacsSim::new(crate::GromacsConfig::default(), 0, 1);
        let chunk = gmx.output_chunk();
        let meta = gromacs_group()
            .unwrap()
            .describe("coords", &chunk.meta.shape.sizes())
            .unwrap();
        assert_eq!(meta.labels, chunk.meta.labels);
    }
}
