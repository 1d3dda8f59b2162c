//! Names, units and directions of every metric the benchmark emits.
//! `BENCHMARK.json` lists the same names (a test holds the two together).

/// One metric's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name: name.into(), unit, better }
}

/// What a user of the CLI sees; measured from outside with every
/// program-side trace off, the two times in seconds of the reference
/// host at its usual pace (see `hostclock`). Never zero, so a relative
/// bound makes sense.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("time_to_solution_s", "s", "lower"),
        def("setup_s", "s", "lower"),
        def("mcells_per_s", "Mcells/s", "higher"),
        def("peak_rss_mib", "MiB", "lower"),
    ]
}

/// Kernels replayed one by one. `attenuation` is not here: it lives inside
/// `dstrqc` and cannot be separated from outside, so it is not estimated.
pub const KERNELS: [&str; 7] =
    ["fstr", "dvelc", "dstrqc", "drprecpc_calc", "drprecpc_app", "sponge", "addsrc"];

/// Kernels whose bytes and flops per cell depend on the data
/// (`drprecpc_app` returns early where nothing yields; `addsrc` touches a
/// handful of scattered cells and has one implementation): they report a
/// rate only, no roofline position.
pub const BYTES_UNKNOWN: [&str; 2] = ["drprecpc_app", "addsrc"];

/// Metrics of single layers, from the traced run.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("host.triad_gbs", "GB/s", "higher"),
        def("host.fma_gflops", "GFLOP/s", "higher"),
        def("host.llc_mib", "MiB", "higher"),
        def("host.probe_array_mib", "MiB", "higher"),
        def("host.clock_ratio", "ratio", "lower"),
    ];
    for k in KERNELS {
        v.push(def(format!("kernels.{k}.mcells_per_s"), "Mcells/s", "higher"));
        if k != "addsrc" {
            v.push(def(format!("kernels.{k}.simd_over_serial"), "ratio", "lower"));
        }
        if !BYTES_UNKNOWN.contains(&k) {
            v.push(def(format!("kernels.{k}.gbs_computed"), "GB/s", "higher"));
            v.push(def(format!("kernels.{k}.flops_per_byte"), "flop/B", "higher"));
            v.push(def(format!("kernels.{k}.roofline_frac"), "ratio", "higher"));
        }
    }
    v.extend([
        def("driver.step_ms_p50", "ms", "lower"),
        def("driver.step_ms_p95", "ms", "lower"),
        def("driver.step_samples", "count", "higher"),
        def("driver.unattributed_ms", "ms", "lower"),
        def("driver.sim_new_ms", "ms", "lower"),
        def("pool.fanout_us_per_region", "us", "lower"),
        def("pool.parallel_over_serial", "ratio", "lower"),
        def("compress.roundtrip_melem_per_s", "Melem/s", "higher"),
        def("compress.plane_encode_melem_per_s", "Melem/s", "higher"),
        def("compress.plane_decode_melem_per_s", "Melem/s", "higher"),
        def("compress.lz4_mb_per_s", "MB/s", "higher"),
        def("compress.codec_rebuilds", "count", "lower"),
        def("resident.decode_s", "s", "lower"),
        def("resident.encode_s", "s", "lower"),
        def("resident.stored_ratio", "ratio", "lower"),
        def("resident.step_over_full", "ratio", "lower"),
        def("io.ckpt_encode_ms", "ms", "lower"),
        def("io.ckpt_write_fsync_ms", "ms", "lower"),
        def("io.ckpt_mib", "MiB", "lower"),
        def("io.ckpt_mb_per_s", "MB/s", "higher"),
        def("io.restore_ms", "ms", "lower"),
        def("io.generations", "count", "lower"),
        def("io.ckpt_loop_share", "ratio", "lower"),
        def("halo.pack_us", "us", "lower"),
        def("halo.wait_us", "us", "lower"),
        def("halo.unpack_us", "us", "lower"),
        def("halo.bytes_per_step", "B", "lower"),
        def("halo.msgs_per_step", "count", "lower"),
        def("setup.model_build_ms", "ms", "lower"),
        def("setup.state_sample_ms", "ms", "lower"),
        def("setup.source_lower_ms", "ms", "lower"),
        def("health.probe_ms", "ms", "lower"),
        def("health.probes", "count", "lower"),
        def("campaign.artifact_hits", "count", "higher"),
        def("campaign.artifact_misses", "count", "lower"),
        def("campaign.scenarios_done", "count", "higher"),
        def("check.seis_misfit", "ratio", "lower"),
        def("trace.overhead_frac", "ratio", "lower"),
        def("ops.attempted", "count", "higher"),
        def("ops.failed", "count", "lower"),
    ]);
    v
}
