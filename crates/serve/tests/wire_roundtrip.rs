//! Exact round-trip properties of the wire codec: every value that
//! crosses the service boundary decodes **bit-identically** through
//! `Json::parse(encode(x).to_string())`, on *both* internal `Mass` arms
//! (dense and sparse) of `Distribution`/`Counts`. The decoded
//! representation may pick a different arm — equality in `qt-dist`
//! compares nonzero streams, and the entry streams here are compared at
//! the `f64::to_bits` level.

use qt_algos::{qaoa_maxcut, ring_graph, QaoaParams};
use qt_baselines::OverheadStats;
use qt_circuit::passes::UnsupportedCoupling;
use qt_core::{run_qutracer, PlanError, QuTracerConfig, ShotPolicy, SkippedSubset, TraceConfig};
use qt_dist::{Counts, Distribution};
use qt_serve::json::Json;
use qt_serve::wire::{
    circuit_from_json, circuit_to_json, config_from_json, config_to_json, counts_from_json,
    counts_to_json, distribution_from_json, distribution_to_json, overhead_stats_from_json,
    overhead_stats_to_json, report_from_json, report_to_json, shot_policy_from_json,
    shot_policy_to_json,
};
use qt_sim::{Executor, NoiseModel, TrieStats};

/// Encode → serialize → parse → decode, the full wire path.
fn through_wire(j: Json) -> Json {
    Json::parse(&j.to_string()).expect("codec emitted unparseable JSON")
}

fn dist_bits(d: &Distribution) -> Vec<(u64, u64)> {
    d.iter().map(|(i, p)| (i, p.to_bits())).collect()
}

fn assert_dist_roundtrip(d: &Distribution) {
    let back = distribution_from_json(&through_wire(distribution_to_json(d))).unwrap();
    assert_eq!(back.n_bits(), d.n_bits());
    assert_eq!(dist_bits(&back), dist_bits(d), "probabilities not bitwise");
}

/// Probabilities chosen to stress shortest-roundtrip formatting: a
/// subnormal, an odd repeating binary fraction, and the complement mass.
fn awkward_probs() -> Vec<f64> {
    let tiny = 5e-324; // smallest positive subnormal
    let odd = 0.1 + 0.2; // 0.30000000000000004
    vec![tiny, odd, 0.25, 1.0 - tiny - odd - 0.25]
}

#[test]
fn distribution_roundtrips_on_both_mass_arms() {
    let d = Distribution::try_from_probs(2, awkward_probs()).unwrap();
    // threshold 0.0: every density qualifies as dense; 2.0: none does.
    assert_dist_roundtrip(&d.clone().with_density_threshold(0.0));
    assert_dist_roundtrip(&d.with_density_threshold(2.0));
}

#[test]
fn wide_sparse_distribution_roundtrips() {
    // 48-bit outcomes: far past f64's contiguous-integer range ÷ density
    // heuristics; exercises the u64-as-string convention.
    let hi = (1u64 << 48) - 1;
    let d = Distribution::try_from_entries(48, vec![(0, 0.5), (hi, 0.5)]).unwrap();
    assert_dist_roundtrip(&d.with_density_threshold(2.0));
}

#[test]
fn counts_roundtrip_on_both_mass_arms() {
    // Counts above 2^53 would corrupt silently through an f64-based
    // reader; the string convention must carry them exactly.
    let big = (1u64 << 53) + 1;
    let c = Counts::try_from_entries(40, vec![(0, big), (7, 3), ((1u64 << 40) - 1, 1)]).unwrap();
    for arm in [0.0, 2.0] {
        let armed = c.clone().with_density_threshold(arm);
        let back = counts_from_json(&through_wire(counts_to_json(&armed))).unwrap();
        assert_eq!(back.n_bits(), armed.n_bits());
        let xs: Vec<(u64, u64)> = back.iter().collect();
        let ys: Vec<(u64, u64)> = armed.iter().collect();
        assert_eq!(xs, ys, "counts diverged on density arm {arm}");
    }
}

#[test]
fn overhead_stats_roundtrip_with_and_without_options() {
    let full = OverheadStats {
        n_circuits: 17,
        normalized_shots: 0.1 + 0.2,
        avg_two_qubit_gates: 6.125,
        global_two_qubit_gates: 12,
        batch: Some(TrieStats {
            n_jobs: 5,
            n_nodes: 40,
            request_gates: 100,
            unique_gates: 60,
            interior_gates: 30,
        }),
        total_shots: Some(u64::MAX),
        round_shots: Some(vec![1000, u64::MAX - 7]),
        engine_mix: Some(vec![("density".into(), 4), ("stabilizer".into(), 1)]),
        failures: Some(qt_sim::FailureStats {
            retries: u64::MAX - 1,
            retried_jobs: 3,
            failed_jobs: 1,
            isolated_panics: 2,
            corrupt_outputs: 4,
            voided_subsets: 5,
        }),
    };
    let bare = OverheadStats {
        batch: None,
        total_shots: None,
        round_shots: None,
        engine_mix: None,
        failures: None,
        ..full.clone()
    };
    for s in [full, bare] {
        let back = overhead_stats_from_json(&through_wire(overhead_stats_to_json(&s))).unwrap();
        assert_eq!(back.n_circuits, s.n_circuits);
        assert_eq!(
            back.normalized_shots.to_bits(),
            s.normalized_shots.to_bits()
        );
        assert_eq!(
            back.avg_two_qubit_gates.to_bits(),
            s.avg_two_qubit_gates.to_bits()
        );
        assert_eq!(back.global_two_qubit_gates, s.global_two_qubit_gates);
        assert_eq!(back.batch, s.batch);
        assert_eq!(back.total_shots, s.total_shots);
        assert_eq!(back.round_shots, s.round_shots);
        assert_eq!(back.engine_mix, s.engine_mix);
        assert_eq!(back.failures, s.failures);
    }
}

#[test]
fn full_report_roundtrips_bitwise() {
    let edges = ring_graph(4);
    let circuit = qaoa_maxcut(4, &edges, &QaoaParams::seeded(1, 3));
    let runner = Executor::new(NoiseModel::depolarizing(0.001, 0.01).with_readout(0.02));
    let report = run_qutracer(&runner, &circuit, &[0, 1, 2, 3], &QuTracerConfig::single());

    let back = report_from_json(&through_wire(report_to_json(&report))).unwrap();

    assert_eq!(
        dist_bits(&back.distribution),
        dist_bits(&report.distribution)
    );
    assert_eq!(dist_bits(&back.global), dist_bits(&report.global));
    assert_eq!(back.locals.len(), report.locals.len());
    for ((da, pa), (db, pb)) in back.locals.iter().zip(&report.locals) {
        assert_eq!(pa, pb);
        assert_eq!(dist_bits(da), dist_bits(db));
    }
    assert_eq!(back.skipped.len(), report.skipped.len());
    assert_eq!(back.stats.n_circuits, report.stats.n_circuits);
    assert_eq!(back.stats.batch, report.stats.batch);
    assert_eq!(back.stats.engine_mix, report.stats.engine_mix);
    assert_eq!(back.subset_stats, report.subset_stats);
}

/// Every `PlanError` variant a skipped subset can carry crosses the wire
/// as itself, the pair-only preparation-basis refusal included.
#[test]
fn plan_error_variants_roundtrip_as_skipped_reasons() {
    let circuit = qaoa_maxcut(4, &ring_graph(4), &QaoaParams::seeded(1, 3));
    let runner = Executor::new(NoiseModel::depolarizing(0.001, 0.01).with_readout(0.02));
    let mut report = run_qutracer(&runner, &circuit, &[0, 1, 2, 3], &QuTracerConfig::single());
    let reasons = [
        PlanError::UnsupportedSubsetSize { size: 3 },
        PlanError::InvalidMeasured {
            qubit: 9,
            n_qubits: 4,
        },
        PlanError::FullPrepsForPairs,
        PlanError::MeasuredTooSmall { needed: 2, got: 1 },
        PlanError::coupling(
            vec![1, 2],
            UnsupportedCoupling {
                index: 5,
                instruction: "cx q1, q3".into(),
            },
        ),
    ];
    report.skipped = reasons
        .iter()
        .map(|reason| SkippedSubset {
            qubits: vec![1, 2],
            positions: vec![1, 2],
            reason: reason.clone(),
        })
        .collect();
    let back = report_from_json(&through_wire(report_to_json(&report))).unwrap();
    assert_eq!(back.skipped, report.skipped);
}

#[test]
fn circuit_roundtrip_preserves_gates_params_and_layers() {
    let edges = ring_graph(5);
    let mut c = qaoa_maxcut(5, &edges, &QaoaParams::seeded(2, 9));
    c.mark_layer(); // trailing bound: stresses the bounds-replay decoder
    let back = circuit_from_json(&circuit_to_json(&c)).unwrap();
    assert_eq!(back.n_qubits(), c.n_qubits());
    assert_eq!(back.layer_bounds(), c.layer_bounds());
    assert_eq!(back.instructions().len(), c.instructions().len());
    for (a, b) in back.instructions().iter().zip(c.instructions()) {
        assert_eq!(a.qubits, b.qubits);
        assert_eq!(a.gate.name(), b.gate.name());
        assert_eq!(format!("{:?}", a.gate), format!("{:?}", b.gate));
    }
}

#[test]
fn config_roundtrip_and_sparse_decode() {
    let mut cfg = QuTracerConfig::single();
    cfg.symmetric_subsets = true;
    cfg.trace = TraceConfig {
        optimize_circuits: false,
        state_traceback: false,
        checked_layers: Some(3),
        use_reduced_preps: false,
        den_floor: 0.125,
    };
    let back = config_from_json(&through_wire(config_to_json(&cfg))).unwrap();
    assert_eq!(back.subset_size, cfg.subset_size);
    assert_eq!(back.symmetric_subsets, cfg.symmetric_subsets);
    assert_eq!(back.trace.optimize_circuits, cfg.trace.optimize_circuits);
    assert_eq!(back.trace.state_traceback, cfg.trace.state_traceback);
    assert_eq!(back.trace.checked_layers, cfg.trace.checked_layers);
    assert_eq!(back.trace.use_reduced_preps, cfg.trace.use_reduced_preps);
    assert_eq!(
        back.trace.den_floor.to_bits(),
        cfg.trace.den_floor.to_bits()
    );

    // Clients may send a partial config; missing fields take defaults.
    let sparse = config_from_json(&Json::parse(r#"{"subset_size": 2}"#).unwrap()).unwrap();
    assert_eq!(sparse.subset_size, 2);
    assert_eq!(sparse.trace.den_floor, TraceConfig::default().den_floor);
}

#[test]
fn shot_policy_roundtrips_all_variants_bitwise() {
    let awkward = 0.1 + 0.2; // 0.30000000000000004: stresses float formatting
    for p in [
        ShotPolicy::Uniform,
        ShotPolicy::WeightedByFanout,
        ShotPolicy::Adaptive {
            pilot_fraction: awkward,
        },
        ShotPolicy::Adaptive {
            pilot_fraction: 0.0,
        },
        ShotPolicy::Adaptive {
            pilot_fraction: 1.0,
        },
    ] {
        let back = shot_policy_from_json(&through_wire(shot_policy_to_json(&p))).unwrap();
        match (back, p) {
            (
                ShotPolicy::Adaptive { pilot_fraction: a },
                ShotPolicy::Adaptive { pilot_fraction: b },
            ) => assert_eq!(a.to_bits(), b.to_bits()),
            (a, b) => assert_eq!(a, b),
        }
    }
}

#[test]
fn malformed_shot_policies_are_rejected_at_the_boundary() {
    for (doc, why) in [
        (
            r#"{"kind": "adaptive", "pilot_fraction": -0.25}"#,
            "negative",
        ),
        (r#"{"kind": "adaptive", "pilot_fraction": 1.5}"#, "above 1"),
        (
            r#"{"kind": "adaptive", "pilot_fraction": "lots"}"#,
            "non-numeric",
        ),
        (r#"{"kind": "adaptive"}"#, "missing fraction"),
        (r#"{"kind": "neyman_or_bust"}"#, "unknown variant"),
        (r#"{}"#, "missing kind"),
    ] {
        let err = shot_policy_from_json(&Json::parse(doc).unwrap()).unwrap_err();
        assert!(
            err.contains("shot_policy"),
            "{why}: error lacks context: {err}"
        );
    }
}

#[test]
fn malformed_round_shots_are_rejected_with_context() {
    // Entries must be string-encoded u64s, like every u64 on the wire.
    for doc in [
        r#"{"n_circuits": 1, "normalized_shots": 1.0, "avg_two_qubit_gates": 0.0,
            "global_two_qubit_gates": 0, "batch": null, "total_shots": null,
            "round_shots": [1000, 2000], "engine_mix": null, "failures": null}"#,
        r#"{"n_circuits": 1, "normalized_shots": 1.0, "avg_two_qubit_gates": 0.0,
            "global_two_qubit_gates": 0, "batch": null, "total_shots": null,
            "round_shots": ["-5"], "engine_mix": null, "failures": null}"#,
        r#"{"n_circuits": 1, "normalized_shots": 1.0, "avg_two_qubit_gates": 0.0,
            "global_two_qubit_gates": 0, "batch": null, "total_shots": null,
            "round_shots": "1000", "engine_mix": null, "failures": null}"#,
    ] {
        let err = overhead_stats_from_json(&Json::parse(doc).unwrap()).unwrap_err();
        assert!(err.contains("round_shots"), "got: {err}");
    }
}

#[test]
fn malformed_wire_values_are_rejected_with_context() {
    let bad_gate = r#"{"n_qubits": 2, "gates": [{"g": "cx", "q": [0, 0]}], "layers": []}"#;
    let err = circuit_from_json(&Json::parse(bad_gate).unwrap()).unwrap_err();
    assert!(err.contains("repeated operand"), "got: {err}");

    let bad_prob = r#"{"bits": 2, "entries": [["4", 0.5]]}"#;
    let err = distribution_from_json(&Json::parse(bad_prob).unwrap()).unwrap_err();
    assert!(err.starts_with("distribution:"), "got: {err}");

    let bad_count = r#"{"bits": 2, "entries": [["1", "-3"]]}"#;
    assert!(counts_from_json(&Json::parse(bad_count).unwrap()).is_err());
}
