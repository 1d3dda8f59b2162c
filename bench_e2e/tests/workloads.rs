//! The input generator: the seed decides placement and nothing else.

use swq_bench_e2e::workloads::{generate, specs, Drive, NAMES};

#[test]
fn same_seed_gives_byte_identical_files() {
    for spec in specs(false) {
        let (a, b) = (generate(&spec, 42), generate(&spec, 42));
        assert_eq!(a.files, b.files, "{}", spec.name);
        assert!(!a.files.is_empty());
    }
}

#[test]
fn another_seed_moves_sources_but_not_the_problem() {
    for spec in specs(false) {
        let (a, b) = (generate(&spec, 1), generate(&spec, 2));
        assert_ne!(a.files, b.files, "{}: the seed must reach the files", spec.name);
        for (sa, sb) in a.scenarios.iter().zip(&b.scenarios) {
            let positions =
                |s: &swquake::Scenario| s.sources.iter().map(|x| x.position).collect::<Vec<_>>();
            assert_ne!(positions(sa), positions(sb), "{}: sources must move", spec.name);
            assert_eq!(sa.mesh, sb.mesh);
            assert_eq!(sa.mesh, [spec.mesh; 3]);
            assert_eq!(sa.sources.len(), spec.sources);
            assert_eq!(sa.stations.len(), sb.stations.len());
            assert_eq!(
                (sa.model, sa.nonlinear, sa.attenuation, sa.compression, &sa.resident),
                (sb.model, sb.nonlinear, sb.attenuation, sb.compression, &sb.resident)
            );
            // Step counts are frozen: both lower to exactly `spec.steps`.
            for s in [sa, sb] {
                let model = s.build_model();
                let cfg = s.to_config(model.as_ref()).expect("generated scenarios are valid");
                assert_eq!(cfg.steps, spec.steps, "{}", spec.name);
            }
        }
    }
}

#[test]
fn set_up_and_reference_variants_are_cut_as_documented() {
    for spec in specs(false) {
        let inputs = generate(&spec, 7);
        assert_eq!(inputs.scenarios.len(), spec.scenarios());
        for r in &inputs.references {
            let model = r.build_model();
            let cfg = r.to_config(model.as_ref()).expect("reference scenarios are valid");
            assert_eq!(cfg.steps, spec.ref_steps);
            assert!(!r.compression && r.resident.is_none() && r.memory_cap_bytes.is_none());
        }
        assert!(spec.ref_steps <= spec.steps);
        if let Drive::Campaign { kill_at, .. } = spec.drive {
            // The kill must land after the first generation and before the end.
            assert!(kill_at > 10 && (kill_at as usize) < spec.steps);
        }
    }
}

#[test]
fn names_are_permanent_and_smoke_meshes_are_small() {
    assert_eq!(
        NAMES,
        ["elastic-large", "nonlinear-tangshan", "resident-capped", "campaign-checkpointed"]
    );
    for (spec, name) in specs(true).iter().zip(NAMES) {
        assert_eq!(spec.name, name);
        assert!((16..=24).contains(&spec.mesh), "{name}: smoke mesh {}", spec.mesh);
        assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
    }
}
