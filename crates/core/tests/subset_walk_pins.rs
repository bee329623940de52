//! Both subset sizes pinned bit for bit across every branch of the subset
//! walk: product and entangled cuts, unchecked windows with their stale
//! refreshes and trailing fallback, traceback on and off, the six-state
//! preparation basis, unoptimized circuits and the unmitigated fallback
//! below the denominator floor. Each configuration runs through the exact
//! `execute → recombine` path and through a two-round adaptive session.

use qt_algos::{bernstein_vazirani, qaoa::QaoaParams, qaoa_maxcut, ring_graph, vqe_ansatz};
use qt_circuit::Circuit;
use qt_core::{QuTracer, QuTracerConfig, QuTracerReport, ShotPolicy};
use qt_dist::Distribution;
use qt_sim::{Backend, Executor, NoiseModel, ReadoutModel};

fn executor() -> Executor {
    Executor::with_backend(
        NoiseModel::depolarizing(0.003, 0.03)
            .with_readout_model(ReadoutModel::with_crosstalk(0.04, 0.02)),
        Backend::DensityMatrix,
    )
}

/// The pinned circuits with their measured qubits.
fn workloads() -> Vec<(&'static str, Circuit, Vec<usize>)> {
    let all = |c: &Circuit| (0..c.n_qubits()).collect::<Vec<_>>();
    let mut out = Vec::new();
    for (name, circ) in [
        ("vqe5x1", vqe_ansatz(5, 1, 3)),
        ("vqe5x2", vqe_ansatz(5, 2, 7)),
        ("vqe4x3", vqe_ansatz(4, 3, 11)),
        (
            "qaoa5",
            qaoa_maxcut(5, &ring_graph(5), &QaoaParams::seeded(2, 4)),
        ),
    ] {
        let measured = all(&circ);
        out.push((name, circ, measured));
    }
    // BV's ancilla (qubit 5) stays unmeasured.
    out.insert(3, ("bv5", bernstein_vazirani(5, 0b10111), (0..5).collect()));
    out
}

fn single_configs() -> Vec<(&'static str, QuTracerConfig)> {
    let base = QuTracerConfig::single();
    let with = |f: fn(&mut QuTracerConfig)| {
        let mut c = base;
        f(&mut c);
        c
    };
    vec![
        ("default", base),
        ("no-traceback", with(|c| c.trace.state_traceback = false)),
        ("checked-0", base.with_checked_layers(0)),
        ("checked-1", base.with_checked_layers(1)),
        ("six-state", with(|c| c.trace.use_reduced_preps = false)),
        ("unoptimized", with(|c| c.trace.optimize_circuits = false)),
        ("den-floor", with(|c| c.trace.den_floor = 1.5)),
    ]
}

fn pair_configs() -> Vec<(&'static str, QuTracerConfig)> {
    let base = QuTracerConfig::pairs();
    let with = |f: fn(&mut QuTracerConfig)| {
        let mut c = base;
        f(&mut c);
        c
    };
    vec![
        ("default", base),
        ("symmetric", base.with_symmetric_subsets()),
        ("checked-1", base.with_checked_layers(1)),
        ("no-traceback", with(|c| c.trace.state_traceback = false)),
        ("den-floor", with(|c| c.trace.den_floor = 1.5)),
    ]
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_dist(&mut self, dist: &Distribution) {
        self.eat(dist.n_bits() as u64);
        for (outcome, p) in dist.iter() {
            self.eat(outcome);
            self.eat(p.to_bits());
        }
    }
}

/// Hashes every bit of a report the subset walks can move: the refined
/// and global distributions, each local with its positions, the skipped
/// subsets, the per-walk statistics and the overhead statistics.
fn report_hash(report: &QuTracerReport) -> u64 {
    let mut h = Fnv::new();
    h.eat_dist(&report.distribution);
    h.eat_dist(&report.global);
    h.eat(report.locals.len() as u64);
    for (local, positions) in &report.locals {
        h.eat_dist(local);
        h.eat(positions.len() as u64);
        for &p in positions {
            h.eat(p as u64);
        }
    }
    h.eat(report.skipped.len() as u64);
    for s in &report.skipped {
        for &q in &s.qubits {
            h.eat(q as u64);
        }
    }
    h.eat(report.subset_stats.len() as u64);
    for s in &report.subset_stats {
        for v in [
            s.n_circuits,
            s.total_gates,
            s.total_two_qubit_gates,
            s.max_two_qubit_gates,
        ] {
            h.eat(v as u64);
        }
    }
    let st = &report.stats;
    h.eat(st.n_circuits as u64);
    h.eat(st.normalized_shots.to_bits());
    h.eat(st.avg_two_qubit_gates.to_bits());
    h.eat(st.global_two_qubit_gates as u64);
    match &st.batch {
        None => h.eat(u64::MAX),
        Some(b) => {
            for v in [
                b.n_jobs,
                b.n_nodes,
                b.request_gates,
                b.unique_gates,
                b.interior_gates,
            ] {
                h.eat(v as u64);
            }
        }
    }
    h.eat(st.total_shots.unwrap_or(u64::MAX));
    match &st.round_shots {
        None => h.eat(u64::MAX),
        Some(rounds) => {
            h.eat(rounds.len() as u64);
            for &r in rounds {
                h.eat(r);
            }
        }
    }
    match &st.engine_mix {
        None => h.eat(u64::MAX),
        Some(mix) => {
            for (name, jobs) in mix {
                for byte in name.bytes() {
                    h.eat(byte as u64);
                }
                h.eat(*jobs as u64);
            }
        }
    }
    h.eat(st.failures.is_some() as u64);
    h.0
}

/// `[exact, adaptive sampled]` hashes per workload and configuration.
fn hashes(configs: &[(&'static str, QuTracerConfig)]) -> Vec<Vec<[u64; 2]>> {
    let exec = executor();
    workloads()
        .iter()
        .map(|(name, circ, measured)| {
            configs
                .iter()
                .map(|(label, config)| {
                    let plan = QuTracer::plan(circ, measured, config)
                        .unwrap_or_else(|e| panic!("{name} {label}: {e}"));
                    let exact = plan
                        .execute(&exec)
                        .and_then(|a| a.recombine())
                        .unwrap_or_else(|e| panic!("{name} {label} exact: {e}"));
                    let sampled = plan
                        .run_sampled(
                            &exec,
                            500 * plan.n_programs(),
                            ShotPolicy::Adaptive {
                                pilot_fraction: 0.5,
                            },
                            99,
                        )
                        .unwrap_or_else(|e| panic!("{name} {label} sampled: {e}"));
                    [report_hash(&exact), report_hash(&sampled)]
                })
                .collect()
        })
        .collect()
}

#[test]
fn single_qubit_walks_are_pinned() {
    let got = hashes(&single_configs());
    assert_eq!(
        got,
        PINNED_SINGLES.map(|w| w.to_vec()).to_vec(),
        "{got:#x?}"
    );
}

#[test]
fn pair_walks_are_pinned() {
    let got = hashes(&pair_configs());
    assert_eq!(got, PINNED_PAIRS.map(|w| w.to_vec()).to_vec(), "{got:#x?}");
}

/// With no checked layer each subset walk is its trailing fallback alone —
/// the plain subset measurement of the whole circuit — so that one circuit
/// is also each subset's largest.
#[test]
fn a_trailing_fallback_is_its_subsets_largest_circuit() {
    let exec = executor();
    let circ = vqe_ansatz(4, 2, 7);
    let measured: Vec<usize> = (0..4).collect();
    for config in [QuTracerConfig::single(), QuTracerConfig::pairs()] {
        let report = QuTracer::plan(&circ, &measured, &config.with_checked_layers(0))
            .expect("plan")
            .execute(&exec)
            .and_then(|a| a.recombine())
            .expect("exact report");
        assert!(!report.subset_stats.is_empty());
        for s in &report.subset_stats {
            assert_eq!(s.n_circuits, 1, "{s:?}");
            assert!(s.total_two_qubit_gates > 0, "{s:?}");
            assert_eq!(s.max_two_qubit_gates, s.total_two_qubit_gates, "{s:?}");
        }
    }
}

/// `[exact, adaptive sampled]` report hashes recorded before the single-
/// qubit and pair implementations were folded into one check and one walk;
/// a changed constant means a report moved by at least one bit. Rows follow
/// [`workloads`], columns [`single_configs`] and [`pair_configs`]. The
/// singles' `checked-0` column was recorded again when the trailing
/// fallback began to count toward `max_two_qubit_gates`, the only bits it
/// moves.
const PINNED_SINGLES: [[[u64; 2]; 7]; 5] = [
    // vqe5x1: default, no-traceback, checked-0, checked-1, six-state, unoptimized, den-floor
    [
        [0x9664_b9d8_6ec5_9630, 0x7a74_8f57_1431_a4d3],
        [0x9664_b9d8_6ec5_9630, 0x7a74_8f57_1431_a4d3],
        [0xafbc_0835_eb2c_6e23, 0x33e2_c8b0_7f72_9cb3],
        [0x9664_b9d8_6ec5_9630, 0x7a74_8f57_1431_a4d3],
        [0x70c9_2381_d2c9_f2dd, 0x654a_db8a_bd5c_d40b],
        [0x2ee2_c725_cc9e_b51c, 0x5c4a_b487_8ae8_1a6f],
        [0x161e_2882_bc09_3fdb, 0xfd3a_6862_704e_9df9],
    ],
    // vqe5x2: default, no-traceback, checked-0, checked-1, six-state, unoptimized, den-floor
    [
        [0xd047_8ac4_9b30_cba6, 0xdfe1_5544_c3bc_0a0c],
        [0x7e9b_6cb1_9365_35e8, 0x32a9_fea3_e147_dc5e],
        [0x1100_8c87_fdf9_e02a, 0x58dc_07a3_6d24_b83b],
        [0x576d_f1fd_f810_bcc1, 0xc432_f22e_7955_9774],
        [0x2b4b_0fe1_39fe_fdce, 0x7ff6_e785_6c86_6121],
        [0x2f5c_7c73_c5f7_ee43, 0xbddd_da8b_b8c8_2634],
        [0x11a6_9e71_36f3_1ddf, 0x0647_804c_8586_eb14],
    ],
    // vqe4x3: default, no-traceback, checked-0, checked-1, six-state, unoptimized, den-floor
    [
        [0xc36a_b998_6f1b_9461, 0xd02a_5fc1_e43f_b64d],
        [0x1588_8138_090e_fa5a, 0x5288_fc92_4080_efd4],
        [0xe210_0853_3495_eb43, 0x08e7_22e4_52bf_4526],
        [0xa053_ffe9_2723_2732, 0x999e_61f9_ce52_cffe],
        [0x39f3_8b3f_579a_dacf, 0x523d_3ad6_8f8d_a3ba],
        [0xdcb0_f4df_610f_9168, 0x7aa6_dc90_41d6_a27c],
        [0x1314_74e7_4799_8492, 0x0820_b8a6_9308_87f6],
    ],
    // bv5: default, no-traceback, checked-0, checked-1, six-state, unoptimized, den-floor
    [
        [0xc0e0_618f_f927_6e23, 0x0822_b991_8e42_c53d],
        [0xc0e0_618f_f927_6e23, 0x3ba2_0bbf_76b6_8835],
        [0x7cd6_e25c_1a7b_bfeb, 0x18f3_74f0_cce5_6321],
        [0xc0e0_618f_f927_6e23, 0x0822_b991_8e42_c53d],
        [0xfc96_150a_d30e_f1f6, 0xe339_8257_d391_ac57],
        [0x0695_2aba_416c_de00, 0x4ef2_0747_61be_2706],
        [0x5fff_5ec4_58ef_e0dc, 0xc20e_c442_ff56_aeaa],
    ],
    // qaoa5: default, no-traceback, checked-0, checked-1, six-state, unoptimized, den-floor
    [
        [0x7465_854c_efbb_bd42, 0x5a7a_e8b1_d01f_cef1],
        [0x88ea_3e3d_6857_4172, 0xe7a1_4911_fb67_db21],
        [0xf303_b802_b637_af8f, 0xb933_bdec_9806_4d06],
        [0x181e_d49c_7a17_88fa, 0x276b_32e3_0519_90e6],
        [0x70b2_9540_7c95_8ecf, 0x5f99_748b_7534_7452],
        [0x9e81_c3ba_1763_f088, 0xd675_a93d_bf61_c7e7],
        [0x7465_854c_efbb_bd42, 0x228b_c506_a586_1ae0],
    ],
];

const PINNED_PAIRS: [[[u64; 2]; 5]; 5] = [
    // vqe5x1: default, symmetric, checked-1, no-traceback, den-floor
    [
        [0x2924_91cb_0e18_d631, 0xbc7f_ffad_065c_2ee9],
        [0xd5f3_4fb5_50ba_3328, 0x2a83_6fb7_80f1_af6b],
        [0x2924_91cb_0e18_d631, 0xbc7f_ffad_065c_2ee9],
        [0x6bdf_6126_ce54_27c6, 0xb013_b66f_efec_e373],
        [0xdb0e_6fae_fd41_e140, 0x97e0_7b3b_096b_8f8e],
    ],
    // vqe5x2: default, symmetric, checked-1, no-traceback, den-floor
    [
        [0xf833_0bb7_4ebc_32b2, 0x43ca_6139_2a41_49fb],
        [0x1584_1e07_e760_f993, 0xaf3f_c8c5_35d0_c7a8],
        [0x577c_43ea_af28_559a, 0x5ce8_7efd_b898_a1c8],
        [0xec02_fe9a_2f04_bdf8, 0x6e5f_6457_1da7_e6d2],
        [0x316d_d00a_0fc1_59b8, 0x1bf9_fca0_ac54_7344],
    ],
    // vqe4x3: default, symmetric, checked-1, no-traceback, den-floor
    [
        [0x966e_d992_cfb0_e5ad, 0x9574_5f4a_5755_1c22],
        [0x02b6_3928_1424_bbee, 0x4ffc_b378_8c18_a259],
        [0xe052_d08d_4801_f315, 0xd194_311f_0a56_1135],
        [0x04d9_aa03_b8f0_4ab0, 0xe3ba_c808_cb06_09b0],
        [0x72a5_9645_6e80_6228, 0x7c95_c9bd_9ab7_2dc0],
    ],
    // bv5: default, symmetric, checked-1, no-traceback, den-floor
    [
        [0xf45c_d861_4691_58bd, 0xf7d6_7328_4f17_6956],
        [0x28d5_48e0_11d1_a2fc, 0xc0dd_e70b_b702_ae18],
        [0xf45c_d861_4691_58bd, 0xf7d6_7328_4f17_6956],
        [0xf45c_d861_4691_58bd, 0x417c_d0c6_b97d_c11c],
        [0x90ba_d30b_72b2_f9e1, 0xba7b_e854_ad09_5f96],
    ],
    // qaoa5: default, symmetric, checked-1, no-traceback, den-floor
    [
        [0x5160_b6f2_0e46_98ee, 0xbdd5_4845_5dfe_3294],
        [0xc270_d7ed_b9cd_fc07, 0x31da_fbac_6cd2_1e91],
        [0x82c7_9c78_a90b_25f6, 0x5e7a_fd17_3022_f1cf],
        [0xf12d_dfd0_8ff3_5bbc, 0xef2d_bb84_3ca2_025d],
        [0x74d4_7c2d_2c64_409e, 0x1fd2_78e9_1a19_0656],
    ],
];
