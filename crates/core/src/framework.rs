//! The unified software framework of Fig. 3.
//!
//! "A unified software framework that includes the dynamic rupture
//! generator, the wave propagation part, and the other supporting
//! functions, such as source partitioner, 3D model generator, restart
//! controller, and parallel I/O functions."
//!
//! [`UnifiedFramework`] chains the stages end to end: dynamic rupture on
//! the fault → kinematic source export → source partitioning → material
//! interpolation → wave propagation with recorders → hazard map.

use crate::driver::{run_multirank, MultiRankOutput, SimConfig, Simulation};
use crate::error::RunError;
use crate::hazard::HazardMap;
use sw_io::Station;
use sw_model::VelocityModel;
use sw_parallel::RankGrid;
use sw_rupture::{export_kinematic, RuptureResult, RuptureSolver};

/// The end-to-end pipeline.
pub struct UnifiedFramework {
    /// The rupture stage (configured fault + stress + friction).
    pub rupture: RuptureSolver,
    /// The wave-propagation configuration (sources are filled in by the
    /// rupture stage).
    pub config: SimConfig,
    /// Slip rake handed to the source export, degrees.
    pub rake_deg: f64,
}

/// Everything the pipeline produces.
pub struct FrameworkOutput {
    /// The rupture stage's result (slip, front, snapshots — Fig. 10b).
    pub rupture: RuptureResult,
    /// Merged wave-propagation observables.
    pub waves: MultiRankOutput,
    /// The seismic-intensity hazard map (Fig. 11e–f).
    pub hazard: HazardMap,
}

impl UnifiedFramework {
    /// Stages 1–2, shared by both ways of running the waves: dynamic
    /// rupture (CG-FDM stage), then its export to kinematic subfaults on
    /// the wave mesh, lowered to the point sources of the returned
    /// wave-propagation config.
    fn rupture_stage(&self, rupture_snapshot_times: &[f64]) -> (RuptureResult, SimConfig) {
        let rupture = self.rupture.solve(rupture_snapshot_times);
        let fault = export_kinematic(
            &self.rupture.geometry,
            &rupture,
            self.rupture.params.shear_modulus,
            self.config.dx,
            self.config.origin,
            self.rake_deg,
        );
        let mut config = self.config.clone();
        config.sources = fault.to_point_sources();
        // Drop sources that fall outside the wave mesh (a scaled-down
        // mesh may not cover the full fault).
        let d = config.dims;
        config.sources.retain(|s| s.ix < d.nx && s.iy < d.ny && s.iz < d.nz);
        (rupture, config)
    }

    /// Run the complete cycle on `grid` ranks.
    #[allow(clippy::result_large_err)] // cold abort-path error; see Simulation::step_checked
    pub fn run(
        &self,
        model: &(dyn VelocityModel + Sync),
        grid: RankGrid,
        rupture_snapshot_times: &[f64],
    ) -> Result<FrameworkOutput, RunError> {
        let (rupture, config) = self.rupture_stage(rupture_snapshot_times);
        // 3–4. Wave propagation with model interpolation and recording
        //      (the source partitioner runs inside the multi-rank driver).
        let waves = run_multirank(model, &config, grid)?;
        // 5. Hazard map from the PGV field.
        let hazard = HazardMap::from_pgv(&waves.pgv, config.dims.nx, config.dims.ny);
        Ok(FrameworkOutput { rupture, waves, hazard })
    }

    /// Single-rank convenience (returns the `Simulation` for inspection).
    #[allow(clippy::result_large_err)] // cold abort-path error; see Simulation::step_checked
    pub fn run_single(
        &self,
        model: &dyn VelocityModel,
        rupture_snapshot_times: &[f64],
    ) -> Result<(RuptureResult, Simulation), RunError> {
        let (rupture, config) = self.rupture_stage(rupture_snapshot_times);
        let mut sim = Simulation::new(model, &config)?;
        sim.run(config.steps.saturating_sub(sim.step_count as usize));
        Ok((rupture, sim))
    }

    /// Default station set: place one station per named site of a
    /// Tangshan-like model, mapped onto the mesh.
    pub fn stations_from_model(
        model: &sw_model::TangshanModel,
        dims: sw_grid::Dims3,
        dx: f64,
    ) -> Vec<Station> {
        model
            .stations
            .iter()
            .map(|(name, fx, fy)| Station {
                name: name.clone(),
                ix: (((fx * model.lx) / dx) as usize).min(dims.nx - 1),
                iy: (((fy * model.ly) / dx) as usize).min(dims.ny - 1),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_grid::Dims3;
    use sw_model::TangshanModel;
    use sw_rupture::{FaultGeometry, TectonicStress};

    /// A fully scaled-down Tangshan pipeline that runs in test time.
    fn tiny_framework() -> (TangshanModel, UnifiedFramework) {
        let model = TangshanModel::with_extent(12_000.0, 12_000.0, 6_000.0);
        let geometry = FaultGeometry::curved_strike_slip(
            (4_000.0, 4_000.0),
            5_000.0,
            3_000.0,
            500.0,
            30.0,
            20.0,
            0.3,
            1_000.0,
        );
        let mut params = sw_rupture::dynamics::RuptureParams::standard(500.0);
        params.t_end = 4.0;
        let rupture =
            RuptureSolver::new(geometry, &TectonicStress::north_china(), params, (0.3, 0.5));
        let dims = Dims3::new(24, 24, 12);
        let mut config = SimConfig::new(dims, 500.0, 40);
        config.options.sponge_width = 4;
        config.options.attenuation = false;
        config.stations = UnifiedFramework::stations_from_model(&model, dims, 500.0);
        (model, UnifiedFramework { rupture, config, rake_deg: 180.0 })
    }

    #[test]
    fn full_pipeline_produces_all_artifacts() {
        let (model, fw) = tiny_framework();
        let out = fw.run(&model, sw_parallel::RankGrid::new(2, 2), &[1.0]).expect("valid config");
        assert!(out.rupture.ruptured_fraction() > 0.3, "rupture happened");
        assert_eq!(out.rupture.snapshots.len(), 1, "Fig. 10b snapshot taken");
        assert!(out.waves.pgv.max() > 0.0, "ground motion reached the surface");
        assert!(out.hazard.max() > 1.0, "hazard map shows shaking");
        assert_eq!(out.waves.seismograms.len(), 2, "both stations recorded");
    }

    #[test]
    fn single_and_multi_rank_agree() {
        let (model, fw) = tiny_framework();
        let (_, sim) = fw.run_single(&model, &[]).expect("valid config");
        let out = fw.run(&model, sw_parallel::RankGrid::new(2, 2), &[]).expect("valid config");
        // same stations, same pgv field (bitwise)
        let single_pgv = sim.pgv;
        for x in 0..24 {
            for y in 0..24 {
                assert_eq!(
                    single_pgv.at(x, y),
                    out.waves.pgv.at(x, y),
                    "PGV mismatch at ({x},{y})"
                );
            }
        }
    }
}
