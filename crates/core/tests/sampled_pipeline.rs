//! Finite-shot pipeline properties: the sampled staged pipeline
//! (`plan → run_sampled`, a single-round session) must converge to the
//! exact pipeline as the shot budget grows, allocate budgets exactly,
//! record real shots in the overhead stats, and keep its reports pinned
//! bit for bit.

use proptest::prelude::*;
use qt_algos::{qaoa::QaoaParams, qaoa_maxcut, ring_graph, vqe_ansatz};
use qt_circuit::Circuit;
use qt_core::{
    MitigationPlan, MitigationSession, QuTracer, QuTracerConfig, QuTracerReport, ShotPolicy,
};
use qt_dist::hellinger_fidelity;
use qt_sim::{Backend, Executor, NoiseModel, ShotPlan};

/// The first round a fresh session issues for `plan` — its whole shot
/// allocation under the static policies.
fn first_round_shots(plan: &MitigationPlan, total: usize, policy: ShotPolicy) -> ShotPlan {
    MitigationSession::new(plan, policy, total, 0)
        .expect("budget funds the floor")
        .next_round()
        .expect("a fresh session has a round")
        .shots
}

fn executor() -> Executor {
    Executor::with_backend(
        NoiseModel::depolarizing(0.002, 0.02).with_readout(0.03),
        Backend::DensityMatrix,
    )
}

/// A random small paper workload (kept to sizes the exact DM engine
/// handles instantly, so the proptest sweep stays cheap).
fn arb_workload() -> impl Strategy<Value = (Circuit, Vec<usize>, QuTracerConfig)> {
    prop_oneof![
        (4usize..6, 1usize..3, 0u64..50).prop_map(|(n, layers, seed)| {
            (
                vqe_ansatz(n, layers, seed),
                (0..n).collect(),
                QuTracerConfig::single(),
            )
        }),
        (4usize..6, 1usize..3, 0u64..50).prop_map(|(n, p, seed)| {
            (
                qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(p, seed)),
                (0..n).collect(),
                QuTracerConfig::pairs().with_symmetric_subsets(),
            )
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline finite-shot property: as the per-program budget grows,
    /// the sampled pipeline's refined distribution converges to the exact
    /// pipeline's (Hellinger fidelity → 1), and it gets there through real
    /// sampled counts whose total the report records.
    #[test]
    fn sampled_pipeline_converges_to_exact((circ, measured, cfg) in arb_workload(), seed in 0u64..1000) {
        let exec = executor();
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let exact = plan
            .execute(&exec)
            .expect("exact execution")
            .recombine()
            .expect("exact recombination");
        prop_assert!(exact.stats.total_shots.is_none(), "exact runs pay in densities");

        let mut fidelities = Vec::new();
        for per_program in [64usize, 65_536] {
            let budget = per_program * plan.n_programs();
            let report = plan
                .run_sampled(&exec, budget, ShotPolicy::Uniform, seed)
                .expect("sampled run");
            prop_assert_eq!(report.stats.total_shots, Some(budget as u64));
            fidelities.push(hellinger_fidelity(&report.distribution, &exact.distribution));
        }
        prop_assert!(
            fidelities[1] > 0.995,
            "64k shots/program must track the exact pipeline: {fidelities:?}"
        );
        prop_assert!(
            fidelities[1] >= fidelities[0] - 0.02,
            "fidelity must not degrade with more shots: {fidelities:?}"
        );
    }

    /// Sampling is a pure function of the plan, the budget and the seed.
    #[test]
    fn sampled_pipeline_is_seed_stable((circ, measured, cfg) in arb_workload()) {
        let exec = executor();
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let total = 2048 * plan.n_programs();
        let a = plan.run_sampled(&exec, total, ShotPolicy::Uniform, 5).unwrap();
        let b = plan.run_sampled(&exec, total, ShotPolicy::Uniform, 5).unwrap();
        let xs: Vec<(u64, f64)> = a.distribution.iter().collect();
        let ys: Vec<(u64, f64)> = b.distribution.iter().collect();
        prop_assert_eq!(xs.len(), ys.len(), "same seed, same support");
        for ((i, x), (j, y)) in xs.iter().zip(&ys) {
            prop_assert_eq!(i, j, "same seed, same support");
            prop_assert_eq!(x.to_bits(), y.to_bits(), "same seed, same distribution");
        }
    }
}

#[test]
fn uniform_allocation_splits_exactly() {
    let circ = vqe_ansatz(5, 2, 3);
    let measured: Vec<usize> = (0..5).collect();
    let plan = QuTracer::plan(&circ, &measured, &QuTracerConfig::single()).unwrap();
    let n = plan.n_programs();
    // A budget that does not divide evenly: largest-remainder must still
    // sum exactly, with every program within one shot of the others.
    let total = 10 * n + n / 2;
    let shots = first_round_shots(&plan, total, ShotPolicy::Uniform);
    assert_eq!(shots.n_jobs(), n);
    assert_eq!(shots.total_shots(), total as u64);
    let (min, max) = (
        shots.per_job().iter().min().unwrap(),
        shots.per_job().iter().max().unwrap(),
    );
    assert!(max - min <= 1, "uniform split spread {min}..{max}");
}

#[test]
fn fanout_weighted_allocation_favors_shared_programs() {
    // Symmetric QAOA pairs: one shared ensemble serves all 6 subsets, so
    // its programs carry fan-out ~6 while the global run has fan-out 1.
    let n = 6;
    let circ = qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(1, 5));
    let measured: Vec<usize> = (0..n).collect();
    let cfg = QuTracerConfig::pairs().with_symmetric_subsets();
    let plan = QuTracer::plan(&circ, &measured, &cfg).unwrap();
    assert!(plan.n_requests() > plan.n_programs(), "dedup happened");

    let total = 1000 * plan.n_requests();
    let weighted = first_round_shots(&plan, total, ShotPolicy::WeightedByFanout);
    assert_eq!(weighted.total_shots(), total as u64);
    // Programs serving many requests get proportionally more than the
    // single-request ones.
    let (min, max) = (
        *weighted.per_job().iter().min().unwrap(),
        *weighted.per_job().iter().max().unwrap(),
    );
    assert!(
        max >= 5 * min.max(1),
        "fan-out weighting should spread allocations: {min}..{max}"
    );
    // Every program gets at least one shot when the budget affords it.
    assert!(min >= 1, "no zero-shot programs");
    let uniform = first_round_shots(&plan, plan.n_programs(), ShotPolicy::Uniform);
    assert!(uniform.per_job().iter().all(|&s| s == 1));
}

/// FNV-1a over a sampled report: every refined `(outcome, p.to_bits())`
/// pair, then the total shots and the per-round ledger.
fn report_hash(report: &QuTracerReport) -> u64 {
    fn eat(h: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *h = (*h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (outcome, p) in report.distribution.iter() {
        eat(&mut h, outcome);
        eat(&mut h, p.to_bits());
    }
    eat(&mut h, report.stats.total_shots.unwrap_or(u64::MAX));
    match &report.stats.round_shots {
        None => eat(&mut h, u64::MAX),
        Some(rounds) => {
            eat(&mut h, rounds.len() as u64);
            for &r in rounds {
                eat(&mut h, r);
            }
        }
    }
    h
}

/// `run_sampled` reports are pinned bit for bit: a symmetric-pair QAOA-6
/// ring and a single-qubit-subset VQE-5 under every shot policy, on the
/// exact density-matrix engine.
#[test]
fn run_sampled_reports_are_pinned() {
    let exec = executor();
    let workloads = [
        (
            "qaoa6",
            qaoa_maxcut(6, &ring_graph(6), &QaoaParams::seeded(1, 5)),
            QuTracerConfig::pairs().with_symmetric_subsets(),
        ),
        ("vqe5", vqe_ansatz(5, 1, 3), QuTracerConfig::single()),
    ];
    let policies = [
        ShotPolicy::Uniform,
        ShotPolicy::WeightedByFanout,
        ShotPolicy::Adaptive {
            pilot_fraction: 0.5,
        },
    ];
    // A changed constant means sampled runs report different bits. VQE-5
    // serves every program once, so fan-out weighting is uniform there.
    const PINNED: [[u64; 3]; 2] = [
        [
            0xdabe_2302_b4ab_4b4f,
            0xcd4d_e052_f962_29e3,
            0x1768_2d70_946a_3894,
        ],
        [
            0xfb80_a807_870c_c43b,
            0xfb80_a807_870c_c43b,
            0x9e77_7db7_c15c_4b29,
        ],
    ];
    let mut got = [[0u64; 3]; 2];
    for (w, (name, circ, cfg)) in workloads.iter().enumerate() {
        let measured: Vec<usize> = (0..circ.n_qubits()).collect();
        let plan = QuTracer::plan(circ, &measured, cfg).expect("plannable workload");
        for (p, &policy) in policies.iter().enumerate() {
            let report = plan
                .run_sampled(&exec, 1000 * plan.n_programs(), policy, 2024)
                .unwrap_or_else(|e| panic!("{name} {policy:?}: {e}"));
            got[w][p] = report_hash(&report);
        }
    }
    assert_eq!(got, PINNED, "{got:#x?}");
}
