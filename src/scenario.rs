//! JSON scenario files: the declarative front end the `swquake` binary
//! (and any embedding tool) runs.
//!
//! A [`Scenario`] names a mesh, an earth model, sources, and stations;
//! [`Scenario::build_model`] and [`Scenario::to_config`] lower it to the
//! solver API, returning [`enum@Error`] instead of exiting on bad input.
//!
//! # Schema versions
//!
//! The current schema is **v2** (`"schema": 2`): the earth model is a
//! typed [`ModelKind`] tag, stations are named [`ScenarioStation`]
//! objects, and unknown keys are rejected so a typo fails loudly instead
//! of silently running the wrong simulation. Files without a `schema`
//! field (or with `"schema": 1`) are the legacy v1 format — stringly
//! model names and `["name", ix, iy]` station tuples — which
//! [`Scenario::from_json_versioned`] still loads, flagging the file as
//! deprecated so front ends can warn. Both versions lower to identical
//! [`SimConfig`]s (pinned by `tests/campaign.rs`).

use crate::error::Error;
use serde::{Deserialize, Serialize, Value};
use sw_grid::Dims3;
use sw_io::Station;
use sw_model::{HalfspaceModel, LayeredModel, TangshanModel, VelocityModel};
use sw_source::{m0_from_mw, MomentTensor, PointSource, SourceTimeFunction};
use swquake_core::state::{SolverState, StateOptions};
use swquake_core::SimConfig;

/// Scenario meshes start at their model's origin.
const ORIGIN: (f64, f64, f64) = (0.0, 0.0, 0.0);

/// The scenario schema version this build writes.
pub const SCENARIO_SCHEMA_VERSION: u32 = 2;

/// Which schema version a scenario file used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioVersion {
    /// Legacy: no `schema` field (or `"schema": 1`), stringly model,
    /// tuple stations. Still loadable, reported as deprecated.
    V1,
    /// Current: `"schema": 2`, typed model tag, named stations, unknown
    /// keys rejected.
    V2,
}

impl ScenarioVersion {
    /// Tell the operator on stderr that `what` (a scenario file's path, a
    /// campaign member's id) is written in the deprecated v1 schema; a
    /// no-op for v2.
    pub fn warn_if_deprecated(self, what: &str) {
        if self == Self::V1 {
            eprintln!(
                "warning: {what} uses the deprecated v1 scenario schema (no `schema` field); \
                 re-emit it with `swquake --write-example` conventions (`schema: 2`)"
            );
        }
    }
}

/// The earth models the solver provides, as a typed scenario tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Uniform hard-rock halfspace.
    Halfspace,
    /// The North China layered model.
    NorthChina,
    /// The Tangshan basin model (extent-dependent: its geometry scales
    /// with the mesh).
    Tangshan,
}

impl ModelKind {
    /// The JSON tag (`"halfspace"`, `"north_china"`, `"tangshan"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Halfspace => "halfspace",
            Self::NorthChina => "north_china",
            Self::Tangshan => "tangshan",
        }
    }

    /// Parse a JSON tag; `None` for models the solver does not provide.
    pub fn parse(tag: &str) -> Option<Self> {
        match tag {
            "halfspace" => Some(Self::Halfspace),
            "north_china" => Some(Self::NorthChina),
            "tangshan" => Some(Self::Tangshan),
            _ => None,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// Hand-written (not derived) so the JSON tags stay the lowercase names
// the v1 format established, not the Rust variant names.
impl Serialize for ModelKind {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl Deserialize for ModelKind {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let tag = v.as_str().ok_or_else(|| serde::Error::expected("model tag string", v))?;
        Self::parse(tag).ok_or_else(|| {
            serde::Error::custom(format!(
                "unknown model '{tag}', expected halfspace|north_china|tangshan"
            ))
        })
    }
}

/// The JSON scenario schema (v2).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Scenario {
    /// Schema version; this build writes [`SCENARIO_SCHEMA_VERSION`].
    pub schema: u32,
    /// Mesh extents in grid points (x, y, z).
    pub mesh: [usize; 3],
    /// Grid spacing, m.
    pub dx: f64,
    /// Simulated duration, s.
    pub duration: f64,
    /// Earth model.
    pub model: ModelKind,
    /// Drucker–Prager plasticity.
    pub nonlinear: bool,
    /// Anelastic attenuation.
    pub attenuation: bool,
    /// Store wavefields 16-bit between steps (§6.5 compression).
    pub compression: bool,
    /// Cerjan sponge width in points.
    pub sponge_width: usize,
    /// Timestep multiplier on the CFL-stable dt (default 1.0; values
    /// above 1 deliberately violate the CFL bound — used by the
    /// instability drills in CI).
    pub dt_scale: Option<f64>,
    /// Checkpoint every N ≥ 1 steps into the run's checkpoint store
    /// (`--checkpoint-dir`, a campaign member's `ckpt/`); omitted = every
    /// 10 steps. Without a store no checkpoint is cut, whatever this says.
    /// The run reads it; [`Scenario::to_config`] does not lower it.
    pub checkpoint_interval: Option<u64>,
    /// Wavefield storage between steps: `"full"` (omitted default) or
    /// `"compressed16"` (16-bit resident stores streamed through a
    /// capped f32 slab; see the `--resident` CLI flag).
    pub resident: Option<String>,
    /// Byte budget for the compressed16 decode slab (omitted = default
    /// tile width). Ignored in full mode.
    pub memory_cap_bytes: Option<u64>,
    /// Point sources.
    pub sources: Vec<ScenarioSource>,
    /// Surface stations recording three-component seismograms.
    pub stations: Vec<ScenarioStation>,
    /// Output prefix for the result files.
    pub output_prefix: String,
}

/// One point source in a scenario file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSource {
    /// Grid position (ix, iy, iz).
    pub position: [usize; 3],
    /// Moment magnitude.
    pub mw: f64,
    /// Fault angles (strike, dip, rake) in degrees.
    pub mechanism: [f64; 3],
    /// Rupture onset, s.
    pub onset: f64,
    /// Source duration, s.
    pub duration: f64,
}

/// One surface station (v2 replaces the v1 `["name", ix, iy]` tuples).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioStation {
    /// Station name, used in the seismogram CSV header.
    pub name: String,
    /// Grid x index.
    pub ix: usize,
    /// Grid y index.
    pub iy: usize,
}

/// The legacy v1 shape, kept only as a loader.
#[derive(Deserialize)]
struct ScenarioV1 {
    mesh: [usize; 3],
    dx: f64,
    duration: f64,
    model: String,
    nonlinear: bool,
    attenuation: bool,
    compression: bool,
    sponge_width: usize,
    dt_scale: Option<f64>,
    checkpoint_interval: Option<u64>,
    sources: Vec<ScenarioSource>,
    stations: Vec<(String, usize, usize)>,
    output_prefix: String,
}

impl ScenarioV1 {
    #[allow(clippy::result_large_err)] // cold parse-path error; see Scenario::from_json
    fn upgrade(self) -> Result<Scenario, Error> {
        let model = ModelKind::parse(&self.model).ok_or(Error::UnknownModel(self.model))?;
        Ok(Scenario {
            schema: SCENARIO_SCHEMA_VERSION,
            mesh: self.mesh,
            dx: self.dx,
            duration: self.duration,
            model,
            nonlinear: self.nonlinear,
            attenuation: self.attenuation,
            compression: self.compression,
            sponge_width: self.sponge_width,
            dt_scale: self.dt_scale,
            checkpoint_interval: self.checkpoint_interval,
            resident: None,
            memory_cap_bytes: None,
            sources: self.sources,
            stations: self
                .stations
                .into_iter()
                .map(|(name, ix, iy)| ScenarioStation { name, ix, iy })
                .collect(),
            output_prefix: self.output_prefix,
        })
    }
}

impl Scenario {
    /// The commented template `swquake write-example` emits.
    pub fn example() -> Self {
        Self {
            schema: SCENARIO_SCHEMA_VERSION,
            mesh: [48, 48, 24],
            dx: 250.0,
            duration: 6.0,
            model: ModelKind::Tangshan,
            nonlinear: false,
            attenuation: true,
            compression: false,
            sponge_width: 8,
            dt_scale: None,
            checkpoint_interval: None,
            resident: None,
            memory_cap_bytes: None,
            sources: vec![ScenarioSource {
                position: [24, 24, 12],
                mw: 5.5,
                mechanism: [30.0, 90.0, 180.0],
                onset: 0.2,
                duration: 1.0,
            }],
            stations: vec![
                ScenarioStation { name: "center".to_string(), ix: 28, iy: 28 },
                ScenarioStation { name: "edge".to_string(), ix: 40, iy: 40 },
            ],
            output_prefix: "swquake_out".to_string(),
        }
    }

    /// Parse a scenario from its JSON text, accepting both schema
    /// versions.
    // `Error`'s largest variant is the full instability diagnosis;
    // it is cold (at most one per run), so boxing isn't worth the
    // API churn (see Simulation::step_checked).
    #[allow(clippy::result_large_err)]
    pub fn from_json(text: &str) -> Result<Self, Error> {
        Self::from_json_versioned(text).map(|(s, _)| s)
    }

    /// Parse a scenario and report which schema version the file used,
    /// so front ends can warn about deprecated v1 files.
    #[allow(clippy::result_large_err)] // cold parse-path error; see from_json
    pub fn from_json_versioned(text: &str) -> Result<(Self, ScenarioVersion), Error> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| Error::Scenario(e.to_string()))?;
        Self::from_value_versioned(&value)
    }

    /// Parse an already-decoded JSON value (the campaign engine hands
    /// scenarios around as values).
    #[allow(clippy::result_large_err)] // cold parse-path error; see from_json
    pub fn from_value_versioned(value: &Value) -> Result<(Self, ScenarioVersion), Error> {
        let parsed = |e: serde::Error| Error::Scenario(e.to_string());
        let (scenario, version) = match value.get("schema").filter(|v| !v.is_null()) {
            Some(v) if v.as_u64() == Some(2) => {
                (Scenario::from_value(value).map_err(parsed)?, ScenarioVersion::V2)
            }
            Some(v) if v.as_u64() != Some(1) => {
                return Err(Error::Scenario(format!(
                    "unsupported scenario schema version {v:?} (this build reads 1 and 2)"
                )));
            }
            _ => (ScenarioV1::from_value(value).map_err(parsed)?.upgrade()?, ScenarioVersion::V1),
        };
        if scenario.checkpoint_interval == Some(0) {
            let why = "checkpoint_interval must be at least 1 (omit it for every 10 steps)";
            return Err(Error::Scenario(why.to_string()));
        }
        Ok((scenario, version))
    }

    /// Pretty JSON rendering (the template writer). Always emits v2.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serialization is infallible")
    }

    /// Instantiate the earth model.
    pub fn build_model(&self) -> Box<dyn VelocityModel> {
        match self.model {
            ModelKind::Halfspace => Box::new(HalfspaceModel::hard_rock()),
            ModelKind::NorthChina => Box::new(LayeredModel::north_china()),
            ModelKind::Tangshan => Box::new(TangshanModel::with_extent(
                self.mesh[0] as f64 * self.dx,
                self.mesh[1] as f64 * self.dx,
                self.mesh[2] as f64 * self.dx,
            )),
        }
    }

    /// Content key for caching the built earth model across scenarios
    /// (campaigns). Extent-dependent models fold the mesh extent into the
    /// key; extent-free models share one instance for any mesh.
    pub fn model_cache_key(&self) -> String {
        match self.model {
            ModelKind::Halfspace | ModelKind::NorthChina => format!("model/{}", self.model),
            ModelKind::Tangshan => format!(
                "model/{}/{}x{}x{}@{}",
                self.model, self.mesh[0], self.mesh[1], self.mesh[2], self.dx
            ),
        }
    }

    /// Content key for caching the sampled material state across
    /// scenarios (campaigns): everything [`Scenario::sample_state`] reads,
    /// so scenarios differing only in sources, stations or duration share
    /// one.
    pub fn state_cache_key(&self) -> String {
        let [nx, ny, nz] = self.mesh;
        format!(
            "state/{}/{nx}x{ny}x{nz}@{}/{:?}",
            self.model_cache_key(),
            self.dx,
            self.state_options()
        )
    }

    /// Sample `model` onto this scenario's mesh — the dominant set-up
    /// cost, and the state [`Scenario::to_config`]'s simulation runs on.
    pub fn sample_state(&self, model: &dyn VelocityModel) -> SolverState {
        SolverState::from_model(model, self.dims(), self.dx, ORIGIN, self.state_options())
    }

    /// The source list, lowered to the solver's point sources.
    pub fn point_sources(&self) -> Vec<PointSource> {
        let lower = |s: &ScenarioSource| PointSource {
            ix: s.position[0],
            iy: s.position[1],
            iz: s.position[2],
            moment: MomentTensor::double_couple(
                s.mechanism[0],
                s.mechanism[1],
                s.mechanism[2],
                m0_from_mw(s.mw),
            ),
            stf: SourceTimeFunction::Triangle { onset: s.onset, duration: s.duration },
        };
        self.sources.iter().map(lower).collect()
    }

    fn dims(&self) -> Dims3 {
        Dims3::new(self.mesh[0], self.mesh[1], self.mesh[2])
    }

    fn state_options(&self) -> StateOptions {
        StateOptions {
            nonlinear: self.nonlinear,
            attenuation: self.attenuation,
            sponge_width: self.sponge_width,
            dt_scale: self.dt_scale.unwrap_or(1.0),
            ..StateOptions::default()
        }
    }

    /// Lower to a validated solver configuration against `model`.
    #[allow(clippy::result_large_err)] // cold abort-path error; see from_json
    pub fn to_config(&self, model: &dyn VelocityModel) -> Result<SimConfig, Error> {
        let options = self.state_options();
        let dt =
            swquake_core::staggered::stable_dt(self.dx, model.vp_max() as f64) * options.dt_scale;
        let stations =
            self.stations.iter().map(|s| Station { name: s.name.clone(), ix: s.ix, iy: s.iy });
        let mut cfg = SimConfig::new(self.dims(), self.dx, (self.duration / dt).ceil() as usize)
            .with_compression(self.compression)
            .with_sources(self.point_sources())
            .with_stations(stations.collect());
        cfg.options = options;
        cfg.origin = ORIGIN;
        if let Some(tag) = &self.resident {
            let mode = tag.parse().map_err(Error::Scenario)?;
            cfg = cfg.with_resident(mode);
        }
        if let Some(cap) = self.memory_cap_bytes {
            cfg = cfg.with_memory_cap(cap);
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_roundtrips_and_lowers() {
        let text = Scenario::example().to_json();
        let (back, version) = Scenario::from_json_versioned(&text).expect("template parses");
        assert_eq!(version, ScenarioVersion::V2);
        let model = back.build_model();
        let cfg = back.to_config(model.as_ref()).expect("template config is valid");
        assert_eq!(cfg.dims, Dims3::new(48, 48, 24));
        assert_eq!(cfg.sources.len(), 1);
        assert_eq!(cfg.stations.len(), 2);
    }

    #[test]
    fn unknown_model_is_an_error() {
        let mut text = Scenario::example().to_json();
        text = text.replace("\"tangshan\"", "\"flat_earth\"");
        let err = Scenario::from_json(&text).unwrap_err();
        assert!(err.to_string().contains("unknown model"), "got: {err}");
    }

    #[test]
    fn unknown_field_is_rejected_in_v2() {
        let mut v: Value = serde_json::from_str(&Scenario::example().to_json()).unwrap();
        v["sponge_widht"] = Value::Number(8.0); // typo
        let err = Scenario::from_value_versioned(&v).unwrap_err();
        assert!(err.to_string().contains("unknown field `sponge_widht`"), "got: {err}");
    }

    #[test]
    fn out_of_mesh_station_is_an_error() {
        let mut s = Scenario::example();
        s.stations[0].ix = 4800;
        let model = s.build_model();
        assert!(matches!(s.to_config(model.as_ref()), Err(Error::Config(_))));
    }

    #[test]
    fn garbage_json_is_a_scenario_error() {
        assert!(matches!(Scenario::from_json("{ not json"), Err(Error::Scenario(_))));
    }

    #[test]
    fn future_schema_version_is_rejected() {
        let mut v: Value = serde_json::from_str(&Scenario::example().to_json()).unwrap();
        v["schema"] = Value::Number(3.0);
        let err = Scenario::from_value_versioned(&v).unwrap_err();
        assert!(err.to_string().contains("unsupported scenario schema"), "got: {err}");
    }

    #[test]
    fn extent_free_models_share_a_cache_key_across_meshes() {
        let mut a = Scenario::example();
        a.model = ModelKind::Halfspace;
        let mut b = a.clone();
        b.mesh = [96, 96, 48];
        assert_eq!(a.model_cache_key(), b.model_cache_key());
        a.model = ModelKind::Tangshan;
        b.model = ModelKind::Tangshan;
        assert_ne!(a.model_cache_key(), b.model_cache_key());
    }
}
