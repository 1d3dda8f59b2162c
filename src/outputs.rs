//! Result-file writing shared by `swquake run` and the campaign engine.
//!
//! Both paths must produce byte-identical files for the same simulation
//! (the campaign crash drills compare resumed outputs against
//! uninterrupted references), so the CSV/JSON rendering lives here, in
//! one place, instead of being duplicated in the binary.

use crate::error::Error;
use sw_io::recorder::{PgvRecorder, Seismogram};
use sw_telemetry::Telemetry;
use swquake_core::hazard::HazardMap;
use swquake_core::{SimConfig, Simulation};

/// What [`write_outputs`] produced, for the caller's result line.
pub struct OutputFiles {
    /// Path of the seismogram CSV.
    pub seismograms: String,
    /// Path of the hazard-map JSON.
    pub hazard: String,
    /// Peak ground velocity over the surface, m/s.
    pub pgv_max: f32,
    /// Maximum seismic intensity on the hazard map.
    pub max_intensity: f32,
}

/// Write the standard result files for a finished simulation under
/// `prefix`: `<prefix>_seismograms.csv` (time, then (vx, vy, vz) per
/// station) and `<prefix>_hazard.json` (PGV + intensity grids).
#[allow(clippy::result_large_err)] // cold abort-path error; see Scenario::from_json
pub fn write_outputs(
    sim: &Simulation,
    cfg: &SimConfig,
    prefix: &str,
    telemetry: &Telemetry,
) -> Result<OutputFiles, Error> {
    write_result_files(sim.seismo.seismograms(), &sim.pgv, sim.state.dt, cfg, prefix, telemetry)
}

/// The rendering itself, from bare observables — one simulation's or the
/// merged ones of [`swquake_core::driver::run_multirank`] — so every
/// path writes the same bytes by construction.
#[allow(clippy::result_large_err)]
pub fn write_result_files(
    seismograms: &[Seismogram],
    pgv: &PgvRecorder,
    dt: f64,
    cfg: &SimConfig,
    prefix: &str,
    telemetry: &Telemetry,
) -> Result<OutputFiles, Error> {
    let t_out = std::time::Instant::now();
    let mut csv = String::from("t");
    for s in seismograms {
        let n = &s.station.name;
        csv.push_str(&format!(",{n}_vx,{n}_vy,{n}_vz"));
    }
    csv.push('\n');
    for i in 0..cfg.steps {
        csv.push_str(&format!("{:.5}", i as f64 * dt));
        for s in seismograms {
            let v = s.samples[i];
            csv.push_str(&format!(",{:.6e},{:.6e},{:.6e}", v[0], v[1], v[2]));
        }
        csv.push('\n');
    }
    let seismo_path = format!("{prefix}_seismograms.csv");
    std::fs::write(&seismo_path, &csv)
        .map_err(|e| Error::Io { path: seismo_path.clone(), source: e })?;

    let map = HazardMap::from_pgv(pgv, cfg.dims.nx, cfg.dims.ny);
    let hazard = serde_json::json!({
        "nx": cfg.dims.nx,
        "ny": cfg.dims.ny,
        "dx_m": cfg.dx,
        "pgv_ms": pgv.pgv,
        "intensity": map.intensity,
        "max_intensity": map.max(),
    });
    let hazard_text = serde_json::to_string(&hazard).expect("hazard serialization is infallible");
    let hazard_path = format!("{prefix}_hazard.json");
    std::fs::write(&hazard_path, &hazard_text)
        .map_err(|e| Error::Io { path: hazard_path.clone(), source: e })?;
    telemetry.record_duration("io.write_outputs", t_out.elapsed().as_secs_f64());
    telemetry.add("io.output_bytes", (csv.len() + hazard_text.len()) as u64);
    Ok(OutputFiles {
        seismograms: seismo_path,
        hazard: hazard_path,
        pgv_max: pgv.max(),
        max_intensity: map.max(),
    })
}
