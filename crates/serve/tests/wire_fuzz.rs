//! The four decoders that take network input — `circuit_from_json`,
//! `config_from_json` and `shot_policy_from_json` behind `POST /submit`,
//! and `report_from_json` behind the client — on mutated valid documents:
//! every call returns, with a value or a typed error, and never panics.

use proptest::prelude::*;
use qt_algos::{qaoa_maxcut, ring_graph, QaoaParams};
use qt_core::{run_qutracer, QuTracerConfig, QuTracerReport, ShotPolicy, TraceConfig};
use qt_serve::http::{read_message, write_response};
use qt_serve::json::Json;
use qt_serve::wire::{
    circuit_from_json, circuit_to_json, config_from_json, config_to_json, counts_from_json,
    distribution_from_json, report_from_json, report_to_json, shot_policy_from_json,
    shot_policy_to_json,
};
use qt_serve::{ClientError, ServiceClient};
use qt_sim::{Backend, Executor, NoiseModel};
use std::net::TcpListener;
use std::sync::OnceLock;

fn report() -> QuTracerReport {
    let circuit = qaoa_maxcut(3, &ring_graph(3), &QaoaParams::seeded(1, 4));
    let runner = Executor::with_backend(
        NoiseModel::depolarizing(0.002, 0.02).with_readout(0.02),
        Backend::DensityMatrix,
    );
    run_qutracer(&runner, &circuit, &[0, 1, 2], &QuTracerConfig::single())
}

/// Valid encodings to mutate: a QAOA circuit, a pairs config with
/// `checked_layers`, an adaptive policy and a real report.
fn bases() -> &'static [Json] {
    static BASES: OnceLock<Vec<Json>> = OnceLock::new();
    BASES.get_or_init(|| {
        let config = QuTracerConfig {
            trace: TraceConfig {
                checked_layers: Some(2),
                ..TraceConfig::default()
            },
            ..QuTracerConfig::pairs()
        };
        vec![
            circuit_to_json(&qaoa_maxcut(4, &ring_graph(4), &QaoaParams::seeded(2, 9))),
            config_to_json(&config),
            shot_policy_to_json(&ShotPolicy::Adaptive {
                pilot_fraction: 0.25,
            }),
            report_to_json(&report()),
        ]
    })
}

/// Every decoder on `doc`; each must return rather than panic.
fn decode_all(doc: &Json) {
    let _ = circuit_from_json(doc);
    let _ = config_from_json(doc);
    let _ = shot_policy_from_json(doc);
    let _ = report_from_json(doc);
}

/// Numbers a mutation writes: zero and negative zero, a subnormal, one bit
/// past the widest outcome space, a 32-bit overflow, a fraction, a
/// negative, a value past `u64` precision, and `u64::MAX` as the wire's
/// decimal string.
fn special(pick: usize) -> Json {
    match pick % 9 {
        0 => Json::Num(0.0),
        1 => Json::Num(-0.0),
        2 => Json::Num(1e-320),
        3 => Json::Num(65.0),
        4 => Json::Num(4_294_967_296.0),
        5 => Json::Num(1.5),
        6 => Json::Num(-3.0),
        7 => Json::Num(1e19),
        _ => Json::Str(u64::MAX.to_string()),
    }
}

fn children(j: &Json) -> Vec<&Json> {
    match j {
        Json::Arr(xs) => xs.iter().collect(),
        Json::Obj(m) => m.values().collect(),
        _ => Vec::new(),
    }
}

/// Nodes matching `pred`, in pre-order.
fn count(j: &Json, pred: fn(&Json) -> bool) -> usize {
    usize::from(pred(j))
        + children(j)
            .into_iter()
            .map(|c| count(c, pred))
            .sum::<usize>()
}

/// The `k`-th node matching `pred`, in pre-order.
fn nth<'a>(j: &'a mut Json, pred: fn(&Json) -> bool, k: &mut usize) -> Option<&'a mut Json> {
    if pred(j) {
        if *k == 0 {
            return Some(j);
        }
        *k -= 1;
    }
    match j {
        Json::Arr(xs) => xs.iter_mut().find_map(|x| nth(x, pred, k)),
        Json::Obj(m) => m.values_mut().find_map(|x| nth(x, pred, k)),
        _ => None,
    }
}

/// Applies one mutation, picked by `kind`, to the `node`-th eligible node:
/// replace it with a scalar, an array or an object; drop an object field;
/// drop or duplicate an array element; or set a number.
fn mutate(doc: &mut Json, (kind, node, value): (usize, usize, usize)) {
    let pred: fn(&Json) -> bool = match kind {
        0..=2 => |_| true,
        3 => |j| matches!(j, Json::Obj(m) if !m.is_empty()),
        4 | 5 => |j| matches!(j, Json::Arr(xs) if !xs.is_empty()),
        _ => |j| matches!(j, Json::Num(_) | Json::Str(_)),
    };
    let eligible = count(doc, pred);
    if eligible == 0 {
        return;
    }
    let target = nth(doc, pred, &mut (node % eligible)).expect("counted above");
    match (kind, target) {
        (0, target) => {
            *target = match value % 4 {
                0 => Json::Null,
                1 => Json::Bool(value % 8 < 4),
                2 => special(value / 4),
                _ => Json::Str("x".into()),
            }
        }
        (1, target) => {
            let old = std::mem::replace(target, Json::Null);
            *target = Json::Arr(if value % 2 == 0 { vec![] } else { vec![old] });
        }
        (2, target) => {
            let old = std::mem::replace(target, Json::Null);
            let mut m = std::collections::BTreeMap::new();
            if value % 2 == 1 {
                m.insert("x".to_string(), old);
            }
            *target = Json::Obj(m);
        }
        (3, Json::Obj(m)) => {
            let key = m.keys().nth(value % m.len()).expect("non-empty").clone();
            m.remove(&key);
        }
        (4, Json::Arr(xs)) => {
            xs.remove(value % xs.len());
        }
        (5, Json::Arr(xs)) => {
            let i = value % xs.len();
            xs.insert(i, xs[i].clone());
        }
        (_, target) => *target = special(value),
    }
}

/// `bits` set to 65 in every distribution of a real report.
fn widen(doc: &mut Json) {
    match doc {
        Json::Obj(m) => {
            if m.contains_key("entries") {
                m.insert("bits".into(), Json::Num(65.0));
            }
            m.values_mut().for_each(widen);
        }
        Json::Arr(xs) => xs.iter_mut().for_each(widen),
        _ => {}
    }
}

#[test]
fn outcome_spaces_past_64_bits_decode_to_typed_errors() {
    let doc = Json::parse(r#"{"bits":65,"entries":[]}"#).unwrap();
    let err = distribution_from_json(&doc).unwrap_err();
    assert!(err.contains("65 outcome bits"), "{err}");
    let err = counts_from_json(&doc).unwrap_err();
    assert!(err.contains("65 outcome bits"), "{err}");
    let mut report = report_to_json(&report());
    widen(&mut report);
    let err = report_from_json(&report).unwrap_err();
    assert!(err.contains("65 outcome bits"), "{err}");
}

/// A server reply the client cannot decode is a typed `Decode` error, not
/// a panic in the client.
#[test]
fn client_decodes_a_65_bit_report_to_a_typed_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound address");
    let mut body = report_to_json(&report());
    widen(&mut body);
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        read_message(&mut stream).expect("request");
        write_response(&mut stream, 200, &body.to_string()).expect("reply");
    });
    let result = ServiceClient::new(addr).result(1);
    server.join().expect("fake server");
    match result {
        Err(ClientError::Decode(msg)) => assert!(msg.contains("65 outcome bits"), "{msg}"),
        other => panic!("expected a typed decode error, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn mutated_network_documents_never_panic_a_decoder(
        base in 0usize..4,
        mutations in prop::collection::vec((0usize..7, 0usize..1 << 20, 0usize..1 << 10), 1..5),
    ) {
        let mut doc = bases()[base].clone();
        for mutation in mutations {
            mutate(&mut doc, mutation);
        }
        decode_all(&doc);
    }
}
