//! Wire representations: `to_json` / `from_json` for every type that
//! crosses the service boundary.
//!
//! Conventions:
//!
//! * **`u64` as decimal strings.** Outcome indices and shot counts are
//!   full 64-bit values; JSON numbers only survive 53 bits through
//!   `f64`-based readers, so they travel as strings (`"18446744073709551615"`).
//! * **Exact floats.** Probabilities serialize via the codec's
//!   shortest-roundtrip formatting, so a decoded [`Distribution`] is
//!   bit-identical to the encoded one (see [`crate::json`]).
//! * **Typed failures.** Every `from_json` returns `Err(String)` naming
//!   the offending field; nothing in this module panics on bad input.
//!
//! Decoded distributions are rebuilt through the default density policy,
//! so the *representation* (dense vs. sparse `Mass` arm) may differ from
//! the sender's — equality in `qt-dist` compares nonzero streams, and
//! every value round-trips exactly, which is the contract that matters.

use crate::json::{obj, u64_str, Json};
use qt_baselines::OverheadStats;
use qt_circuit::passes::UnsupportedCoupling;
use qt_circuit::{Circuit, Gate};
use qt_core::{
    PlanError, PlanView, QuTracerConfig, QuTracerReport, ShotPolicy, SkippedSubset, TraceConfig,
};
use qt_dist::{Counts, Distribution};
use qt_pcs::QspcStats;
use qt_sim::TrieStats;

fn usize_arr(xs: &[usize]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x as f64)).collect())
}

fn usize_vec(j: &Json, what: &str) -> Result<Vec<usize>, String> {
    j.as_arr(what)?.iter().map(|x| x.as_usize(what)).collect()
}

// ---------------------------------------------------------------- circuits

/// Encodes a circuit as `{n_qubits, gates: [{g, q, p?}...], layers}`.
pub fn circuit_to_json(c: &Circuit) -> Json {
    let gates = c
        .instructions()
        .iter()
        .map(|instr| {
            let params = gate_params(&instr.gate);
            let mut fields = vec![
                ("g", Json::Str(instr.gate.name().to_string())),
                ("q", usize_arr(&instr.qubits)),
            ];
            if !params.is_empty() {
                fields.push((
                    "p",
                    Json::Arr(params.iter().map(|&x| Json::Num(x)).collect()),
                ));
            }
            obj(fields)
        })
        .collect();
    obj([
        ("n_qubits", Json::Num(c.n_qubits() as f64)),
        ("gates", Json::Arr(gates)),
        ("layers", usize_arr(c.layer_bounds())),
    ])
}

/// Decodes [`circuit_to_json`]'s form, validating operand counts, operand
/// ranges and layer bounds before touching the (panicking) builder API.
pub fn circuit_from_json(j: &Json) -> Result<Circuit, String> {
    let n_qubits = j
        .field("n_qubits", "circuit")?
        .as_usize("circuit.n_qubits")?;
    if n_qubits == 0 || n_qubits > 64 {
        return Err(format!("circuit.n_qubits: {n_qubits} outside 1..=64"));
    }
    let gates = j.field("gates", "circuit")?.as_arr("circuit.gates")?;
    let layers = usize_vec(j.field("layers", "circuit")?, "circuit.layers")?;

    let mut c = Circuit::new(n_qubits);
    let mut bounds = layers.iter().peekable();
    for (i, gj) in gates.iter().enumerate() {
        let what = format!("circuit.gates[{i}]");
        while bounds.peek() == Some(&&i) {
            c.mark_layer();
            bounds.next();
        }
        let name = gj.field("g", &what)?.as_str(&what)?;
        let params: Vec<f64> = match gj.opt_field("p", &what)? {
            Some(p) => p
                .as_arr(&what)?
                .iter()
                .map(|x| x.as_f64(&what))
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        let qubits = usize_vec(gj.field("q", &what)?, &what)?;
        let gate = gate_from_name(name, &params)
            .ok_or_else(|| format!("{what}: unknown gate {name:?} with {} params", params.len()))?;
        if gate.n_qubits() != qubits.len() {
            return Err(format!(
                "{what}: gate {name} expects {} operands, got {}",
                gate.n_qubits(),
                qubits.len()
            ));
        }
        for (k, &q) in qubits.iter().enumerate() {
            if q >= n_qubits {
                return Err(format!(
                    "{what}: operand {q} outside register of {n_qubits}"
                ));
            }
            if qubits[..k].contains(&q) {
                return Err(format!("{what}: repeated operand {q}"));
            }
        }
        c.push(gate, qubits);
    }
    let n = gates.len();
    for &b in bounds {
        if b != n {
            return Err(format!(
                "circuit.layers: bound {b} out of order (circuit has {n} gates)"
            ));
        }
        c.mark_layer();
    }
    Ok(c)
}

fn gate_params(g: &Gate) -> Vec<f64> {
    use Gate::*;
    match *g {
        Rx(a) | Ry(a) | Rz(a) | Phase(a) | Cp(a) | Crz(a) | Crx(a) | Cry(a) | Ccp(a) => vec![a],
        U(a, b, c) => vec![a, b, c],
        _ => Vec::new(),
    }
}

fn gate_from_name(name: &str, p: &[f64]) -> Option<Gate> {
    use Gate::*;
    Some(match (name, p) {
        ("h", []) => H,
        ("x", []) => X,
        ("y", []) => Y,
        ("z", []) => Z,
        ("s", []) => S,
        ("sdg", []) => Sdg,
        ("t", []) => T,
        ("tdg", []) => Tdg,
        ("sx", []) => Sx,
        ("rx", &[a]) => Rx(a),
        ("ry", &[a]) => Ry(a),
        ("rz", &[a]) => Rz(a),
        ("p", &[a]) => Phase(a),
        ("u", &[a, b, c]) => U(a, b, c),
        ("cx", []) => Cx,
        ("cy", []) => Cy,
        ("cz", []) => Cz,
        ("cp", &[a]) => Cp(a),
        ("crz", &[a]) => Crz(a),
        ("crx", &[a]) => Crx(a),
        ("cry", &[a]) => Cry(a),
        ("swap", []) => Swap,
        ("ccp", &[a]) => Ccp(a),
        _ => return None,
    })
}

// ----------------------------------------------------- distributions/counts

/// Encodes a distribution as `{bits, entries: [["idx", p]...]}` with
/// ascending string-encoded outcome indices and exact probabilities.
pub fn distribution_to_json(d: &Distribution) -> Json {
    let entries = d
        .iter()
        .map(|(idx, p)| Json::Arr(vec![u64_str(idx), Json::Num(p)]))
        .collect();
    obj([
        ("bits", Json::Num(d.n_bits() as f64)),
        ("entries", Json::Arr(entries)),
    ])
}

/// Decodes [`distribution_to_json`]'s form.
pub fn distribution_from_json(j: &Json) -> Result<Distribution, String> {
    let bits = j
        .field("bits", "distribution")?
        .as_usize("distribution.bits")?;
    let entries = j
        .field("entries", "distribution")?
        .as_arr("distribution.entries")?
        .iter()
        .map(|e| {
            let pair = e.as_arr("distribution entry")?;
            if pair.len() != 2 {
                return Err("distribution entry: expected [index, prob] pair".to_string());
            }
            Ok((
                pair[0].as_u64_str("distribution outcome")?,
                pair[1].as_f64("distribution prob")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Distribution::try_from_entries(bits, entries).map_err(|e| format!("distribution: {e}"))
}

/// Encodes a count table as `{bits, entries: [["idx", "count"]...]}` —
/// both sides string-encoded (counts are full `u64`s too).
pub fn counts_to_json(c: &Counts) -> Json {
    let entries = c
        .iter()
        .map(|(idx, n)| Json::Arr(vec![u64_str(idx), u64_str(n)]))
        .collect();
    obj([
        ("bits", Json::Num(c.n_bits() as f64)),
        ("entries", Json::Arr(entries)),
    ])
}

/// Decodes [`counts_to_json`]'s form.
pub fn counts_from_json(j: &Json) -> Result<Counts, String> {
    let bits = j.field("bits", "counts")?.as_usize("counts.bits")?;
    let entries = j
        .field("entries", "counts")?
        .as_arr("counts.entries")?
        .iter()
        .map(|e| {
            let pair = e.as_arr("counts entry")?;
            if pair.len() != 2 {
                return Err("counts entry: expected [index, count] pair".to_string());
            }
            Ok((
                pair[0].as_u64_str("counts outcome")?,
                pair[1].as_u64_str("counts value")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Counts::try_from_entries(bits, entries).map_err(|e| format!("counts: {e}"))
}

// ------------------------------------------------------------------- stats

/// Encodes [`TrieStats`] field-by-field.
pub fn trie_stats_to_json(s: &TrieStats) -> Json {
    obj([
        ("n_jobs", Json::Num(s.n_jobs as f64)),
        ("n_nodes", Json::Num(s.n_nodes as f64)),
        ("request_gates", Json::Num(s.request_gates as f64)),
        ("unique_gates", Json::Num(s.unique_gates as f64)),
        ("interior_gates", Json::Num(s.interior_gates as f64)),
    ])
}

/// Decodes [`trie_stats_to_json`]'s form.
pub fn trie_stats_from_json(j: &Json) -> Result<TrieStats, String> {
    Ok(TrieStats {
        n_jobs: j.field("n_jobs", "trie_stats")?.as_usize("n_jobs")?,
        n_nodes: j.field("n_nodes", "trie_stats")?.as_usize("n_nodes")?,
        request_gates: j
            .field("request_gates", "trie_stats")?
            .as_usize("request_gates")?,
        unique_gates: j
            .field("unique_gates", "trie_stats")?
            .as_usize("unique_gates")?,
        interior_gates: j
            .field("interior_gates", "trie_stats")?
            .as_usize("interior_gates")?,
    })
}

/// Encodes [`qt_sim::FailureStats`] field-by-field (u64s as decimal
/// strings, like every other u64 on the wire).
pub fn failure_stats_to_json(s: &qt_sim::FailureStats) -> Json {
    obj([
        ("retries", u64_str(s.retries)),
        ("retried_jobs", u64_str(s.retried_jobs)),
        ("failed_jobs", u64_str(s.failed_jobs)),
        ("isolated_panics", u64_str(s.isolated_panics)),
        ("corrupt_outputs", u64_str(s.corrupt_outputs)),
        ("voided_subsets", u64_str(s.voided_subsets)),
    ])
}

/// Decodes [`failure_stats_to_json`]'s form.
pub fn failure_stats_from_json(j: &Json) -> Result<qt_sim::FailureStats, String> {
    let get =
        |name: &str| -> Result<u64, String> { j.field(name, "failure_stats")?.as_u64_str(name) };
    Ok(qt_sim::FailureStats {
        retries: get("retries")?,
        retried_jobs: get("retried_jobs")?,
        failed_jobs: get("failed_jobs")?,
        isolated_panics: get("isolated_panics")?,
        corrupt_outputs: get("corrupt_outputs")?,
        voided_subsets: get("voided_subsets")?,
    })
}

/// Encodes [`OverheadStats`]; optional fields serialize as `null`.
pub fn overhead_stats_to_json(s: &OverheadStats) -> Json {
    obj([
        ("n_circuits", Json::Num(s.n_circuits as f64)),
        ("normalized_shots", Json::Num(s.normalized_shots)),
        ("avg_two_qubit_gates", Json::Num(s.avg_two_qubit_gates)),
        (
            "global_two_qubit_gates",
            Json::Num(s.global_two_qubit_gates as f64),
        ),
        (
            "batch",
            s.batch.as_ref().map_or(Json::Null, trie_stats_to_json),
        ),
        ("total_shots", s.total_shots.map_or(Json::Null, u64_str)),
        (
            "round_shots",
            s.round_shots.as_ref().map_or(Json::Null, |rounds| {
                Json::Arr(rounds.iter().map(|&r| u64_str(r)).collect())
            }),
        ),
        (
            "engine_mix",
            s.engine_mix.as_ref().map_or(Json::Null, |mix| {
                Json::Arr(
                    mix.iter()
                        .map(|(name, n)| {
                            Json::Arr(vec![Json::Str(name.clone()), Json::Num(*n as f64)])
                        })
                        .collect(),
                )
            }),
        ),
        (
            "failures",
            s.failures
                .as_ref()
                .map_or(Json::Null, failure_stats_to_json),
        ),
    ])
}

/// Decodes [`overhead_stats_to_json`]'s form.
pub fn overhead_stats_from_json(j: &Json) -> Result<OverheadStats, String> {
    let engine_mix = match j.opt_field("engine_mix", "overhead_stats")? {
        None => None,
        Some(mix) => Some(
            mix.as_arr("engine_mix")?
                .iter()
                .map(|e| {
                    let pair = e.as_arr("engine_mix entry")?;
                    if pair.len() != 2 {
                        return Err("engine_mix entry: expected [engine, count]".to_string());
                    }
                    Ok((
                        pair[0].as_str("engine name")?.to_string(),
                        pair[1].as_usize("engine count")?,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?,
        ),
    };
    Ok(OverheadStats {
        n_circuits: j
            .field("n_circuits", "overhead_stats")?
            .as_usize("n_circuits")?,
        normalized_shots: j
            .field("normalized_shots", "overhead_stats")?
            .as_f64("normalized_shots")?,
        avg_two_qubit_gates: j
            .field("avg_two_qubit_gates", "overhead_stats")?
            .as_f64("avg_two_qubit_gates")?,
        global_two_qubit_gates: j
            .field("global_two_qubit_gates", "overhead_stats")?
            .as_usize("global_two_qubit_gates")?,
        batch: j
            .opt_field("batch", "overhead_stats")?
            .map(trie_stats_from_json)
            .transpose()?,
        total_shots: j
            .opt_field("total_shots", "overhead_stats")?
            .map(|v| v.as_u64_str("total_shots"))
            .transpose()?,
        round_shots: j
            .opt_field("round_shots", "overhead_stats")?
            .map(|v| {
                v.as_arr("round_shots")?
                    .iter()
                    .map(|r| r.as_u64_str("round_shots entry"))
                    .collect::<Result<Vec<u64>, String>>()
            })
            .transpose()?,
        engine_mix,
        failures: j
            .opt_field("failures", "overhead_stats")?
            .map(failure_stats_from_json)
            .transpose()?,
    })
}

fn qspc_stats_to_json(s: &QspcStats) -> Json {
    obj([
        ("n_circuits", Json::Num(s.n_circuits as f64)),
        ("total_gates", Json::Num(s.total_gates as f64)),
        (
            "total_two_qubit_gates",
            Json::Num(s.total_two_qubit_gates as f64),
        ),
        (
            "max_two_qubit_gates",
            Json::Num(s.max_two_qubit_gates as f64),
        ),
    ])
}

fn qspc_stats_from_json(j: &Json) -> Result<QspcStats, String> {
    Ok(QspcStats {
        n_circuits: j
            .field("n_circuits", "qspc_stats")?
            .as_usize("n_circuits")?,
        total_gates: j
            .field("total_gates", "qspc_stats")?
            .as_usize("total_gates")?,
        total_two_qubit_gates: j
            .field("total_two_qubit_gates", "qspc_stats")?
            .as_usize("total_two_qubit_gates")?,
        max_two_qubit_gates: j
            .field("max_two_qubit_gates", "qspc_stats")?
            .as_usize("max_two_qubit_gates")?,
    })
}

// ------------------------------------------------------------ plan errors

fn plan_error_to_json(e: &PlanError) -> Json {
    match e {
        PlanError::UnsupportedSubsetSize { size } => obj([
            ("kind", Json::Str("unsupported_subset_size".into())),
            ("size", Json::Num(*size as f64)),
        ]),
        PlanError::InvalidMeasured { qubit, n_qubits } => obj([
            ("kind", Json::Str("invalid_measured".into())),
            ("qubit", Json::Num(*qubit as f64)),
            ("n_qubits", Json::Num(*n_qubits as f64)),
        ]),
        PlanError::FullPrepsForPairs => obj([("kind", Json::Str("full_preps_for_pairs".into()))]),
        PlanError::MeasuredTooSmall { needed, got } => obj([
            ("kind", Json::Str("measured_too_small".into())),
            ("needed", Json::Num(*needed as f64)),
            ("got", Json::Num(*got as f64)),
        ]),
        PlanError::UnsupportedCoupling { subset, source } => obj([
            ("kind", Json::Str("unsupported_coupling".into())),
            ("subset", usize_arr(subset)),
            ("index", Json::Num(source.index as f64)),
            ("instruction", Json::Str(source.instruction.clone())),
        ]),
    }
}

fn plan_error_from_json(j: &Json) -> Result<PlanError, String> {
    let kind = j.field("kind", "plan_error")?.as_str("plan_error.kind")?;
    match kind {
        "unsupported_subset_size" => Ok(PlanError::UnsupportedSubsetSize {
            size: j.field("size", "plan_error")?.as_usize("size")?,
        }),
        "invalid_measured" => Ok(PlanError::InvalidMeasured {
            qubit: j.field("qubit", "plan_error")?.as_usize("qubit")?,
            n_qubits: j.field("n_qubits", "plan_error")?.as_usize("n_qubits")?,
        }),
        "full_preps_for_pairs" => Ok(PlanError::FullPrepsForPairs),
        "measured_too_small" => Ok(PlanError::MeasuredTooSmall {
            needed: j.field("needed", "plan_error")?.as_usize("needed")?,
            got: j.field("got", "plan_error")?.as_usize("got")?,
        }),
        "unsupported_coupling" => Ok(PlanError::UnsupportedCoupling {
            subset: usize_vec(j.field("subset", "plan_error")?, "subset")?,
            source: UnsupportedCoupling {
                index: j.field("index", "plan_error")?.as_usize("index")?,
                instruction: j
                    .field("instruction", "plan_error")?
                    .as_str("instruction")?
                    .to_string(),
            },
        }),
        other => Err(format!("plan_error.kind: unknown variant {other:?}")),
    }
}

fn skipped_to_json(s: &SkippedSubset) -> Json {
    obj([
        ("qubits", usize_arr(&s.qubits)),
        ("positions", usize_arr(&s.positions)),
        ("reason", plan_error_to_json(&s.reason)),
    ])
}

fn skipped_from_json(j: &Json) -> Result<SkippedSubset, String> {
    Ok(SkippedSubset {
        qubits: usize_vec(j.field("qubits", "skipped")?, "skipped.qubits")?,
        positions: usize_vec(j.field("positions", "skipped")?, "skipped.positions")?,
        reason: plan_error_from_json(j.field("reason", "skipped")?)?,
    })
}

// ----------------------------------------------------------------- reports

/// Encodes a full [`QuTracerReport`].
pub fn report_to_json(r: &QuTracerReport) -> Json {
    obj([
        ("distribution", distribution_to_json(&r.distribution)),
        ("global", distribution_to_json(&r.global)),
        (
            "locals",
            Json::Arr(
                r.locals
                    .iter()
                    .map(|(d, pos)| {
                        obj([
                            ("distribution", distribution_to_json(d)),
                            ("positions", usize_arr(pos)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "skipped",
            Json::Arr(r.skipped.iter().map(skipped_to_json).collect()),
        ),
        ("stats", overhead_stats_to_json(&r.stats)),
        (
            "subset_stats",
            Json::Arr(r.subset_stats.iter().map(qspc_stats_to_json).collect()),
        ),
    ])
}

/// Decodes [`report_to_json`]'s form.
pub fn report_from_json(j: &Json) -> Result<QuTracerReport, String> {
    let locals = j
        .field("locals", "report")?
        .as_arr("report.locals")?
        .iter()
        .map(|l| {
            Ok((
                distribution_from_json(l.field("distribution", "local")?)?,
                usize_vec(l.field("positions", "local")?, "local.positions")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let skipped = j
        .field("skipped", "report")?
        .as_arr("report.skipped")?
        .iter()
        .map(skipped_from_json)
        .collect::<Result<Vec<_>, String>>()?;
    let subset_stats = j
        .field("subset_stats", "report")?
        .as_arr("report.subset_stats")?
        .iter()
        .map(qspc_stats_from_json)
        .collect::<Result<Vec<_>, String>>()?;
    Ok(QuTracerReport {
        distribution: distribution_from_json(j.field("distribution", "report")?)?,
        global: distribution_from_json(j.field("global", "report")?)?,
        locals,
        skipped,
        stats: overhead_stats_from_json(j.field("stats", "report")?)?,
        subset_stats,
    })
}

// ------------------------------------------------------------------ config

/// Encodes a [`QuTracerConfig`] (flat: trace options inline).
pub fn config_to_json(c: &QuTracerConfig) -> Json {
    obj([
        ("subset_size", Json::Num(c.subset_size as f64)),
        ("symmetric_subsets", Json::Bool(c.symmetric_subsets)),
        ("optimize_circuits", Json::Bool(c.trace.optimize_circuits)),
        ("state_traceback", Json::Bool(c.trace.state_traceback)),
        (
            "checked_layers",
            c.trace
                .checked_layers
                .map_or(Json::Null, |k| Json::Num(k as f64)),
        ),
        ("use_reduced_preps", Json::Bool(c.trace.use_reduced_preps)),
        ("den_floor", Json::Num(c.trace.den_floor)),
    ])
}

/// Decodes [`config_to_json`]'s form. Every field is optional and
/// defaults to [`QuTracerConfig::default`]'s value, so clients may send
/// `{}` or just `{"subset_size": 2}`.
pub fn config_from_json(j: &Json) -> Result<QuTracerConfig, String> {
    let mut c = QuTracerConfig::default();
    let mut t = TraceConfig::default();
    if let Some(v) = j.opt_field("subset_size", "config")? {
        c.subset_size = v.as_usize("config.subset_size")?;
    }
    if let Some(v) = j.opt_field("symmetric_subsets", "config")? {
        c.symmetric_subsets = v.as_bool("config.symmetric_subsets")?;
    }
    if let Some(v) = j.opt_field("optimize_circuits", "config")? {
        t.optimize_circuits = v.as_bool("config.optimize_circuits")?;
    }
    if let Some(v) = j.opt_field("state_traceback", "config")? {
        t.state_traceback = v.as_bool("config.state_traceback")?;
    }
    if let Some(v) = j.opt_field("checked_layers", "config")? {
        t.checked_layers = Some(v.as_usize("config.checked_layers")?);
    }
    if let Some(v) = j.opt_field("use_reduced_preps", "config")? {
        t.use_reduced_preps = v.as_bool("config.use_reduced_preps")?;
    }
    if let Some(v) = j.opt_field("den_floor", "config")? {
        t.den_floor = v.as_f64("config.den_floor")?;
    }
    c.trace = t;
    Ok(c)
}

/// Encodes a [`ShotPolicy`] as a variant-tagged object:
/// `{"kind":"uniform"}`, `{"kind":"weighted_by_fanout"}` or
/// `{"kind":"adaptive","pilot_fraction":0.25}`.
pub fn shot_policy_to_json(p: &ShotPolicy) -> Json {
    match p {
        ShotPolicy::Uniform => obj([("kind", Json::Str("uniform".into()))]),
        ShotPolicy::WeightedByFanout => obj([("kind", Json::Str("weighted_by_fanout".into()))]),
        ShotPolicy::Adaptive { pilot_fraction } => obj([
            ("kind", Json::Str("adaptive".into())),
            ("pilot_fraction", Json::Num(*pilot_fraction)),
        ]),
    }
}

/// Decodes [`shot_policy_to_json`]'s form, rejecting unknown variants and
/// adaptive pilot fractions outside `[0, 1]` (or non-finite ones) at the
/// boundary — a malformed policy never reaches the session layer.
pub fn shot_policy_from_json(j: &Json) -> Result<ShotPolicy, String> {
    let kind = j.field("kind", "shot_policy")?.as_str("shot_policy.kind")?;
    match kind {
        "uniform" => Ok(ShotPolicy::Uniform),
        "weighted_by_fanout" => Ok(ShotPolicy::WeightedByFanout),
        "adaptive" => {
            let pilot_fraction = j
                .field("pilot_fraction", "shot_policy")?
                .as_f64("shot_policy.pilot_fraction")?;
            if !pilot_fraction.is_finite() || !(0.0..=1.0).contains(&pilot_fraction) {
                return Err(format!(
                    "shot_policy.pilot_fraction: {pilot_fraction} outside [0, 1]"
                ));
            }
            Ok(ShotPolicy::Adaptive { pilot_fraction })
        }
        other => Err(format!("shot_policy.kind: unknown variant {other:?}")),
    }
}

/// Encodes a [`PlanView`] (status-endpoint payload for queued jobs).
pub fn plan_view_to_json(v: &PlanView) -> Json {
    obj([
        ("n_qubits", Json::Num(v.n_qubits as f64)),
        ("measured", usize_arr(&v.measured)),
        ("n_programs", Json::Num(v.n_programs as f64)),
        ("n_requests", Json::Num(v.n_requests as f64)),
        ("n_subsets", Json::Num(v.n_subsets as f64)),
        ("n_skipped", Json::Num(v.n_skipped as f64)),
        ("shared_gate_fraction", Json::Num(v.shared_gate_fraction)),
    ])
}
