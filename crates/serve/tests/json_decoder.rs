//! The JSON decoder on hostile and large inputs: multi-byte UTF-8 next to
//! escapes decodes exactly, string decoding is linear in the input, and
//! arbitrary bytes or strings yield either a typed [`JsonError`] or a
//! value that survives serialize → parse unchanged — never a panic.

use proptest::prelude::*;
use qt_serve::json::{Json, JsonError};
use std::time::{Duration, Instant};

/// `parse`, plus the round-trip property every successful parse must
/// satisfy: the value re-parses from its own serialization unchanged.
fn parse_roundtrip(text: &str) -> Result<Json, JsonError> {
    let value = Json::parse(text)?;
    let again = Json::parse(&value.serialize()).expect("serialized JSON re-parses");
    assert_eq!(again, value, "round trip changed {text:?}");
    Ok(value)
}

#[test]
fn multibyte_scalars_next_to_escapes_decode_exactly() {
    // 2-, 3- and 4-byte scalars, each adjacent to escapes on both sides.
    let text = r#""é\n€\t𝄞\\\"üé€𝄞𝄞\u0000ß""#;
    let want = "é\n€\t𝄞\\\"ü\u{e9}€\u{1d11e}𝄞\u{0}ß";
    assert_eq!(parse_roundtrip(text).unwrap(), Json::Str(want.into()));
    for s in [
        "é",
        "€",
        "𝄞",
        "aé\"€\\𝄞\u{1}",
        "\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}",
    ] {
        let encoded = Json::Str(s.into()).serialize();
        assert_eq!(
            parse_roundtrip(&encoded).unwrap(),
            Json::Str(s.into()),
            "{encoded}"
        );
    }
}

#[test]
fn a_four_mebibyte_string_parses_in_linear_time() {
    let unit = "ab€𝄞\\n";
    let body: String = unit.repeat((4 << 20) / unit.len());
    let doc = format!("{{\"s\":\"{body}\",\"n\":[1,2.5]}}");
    let start = Instant::now();
    let value = Json::parse(&doc).unwrap();
    let elapsed = start.elapsed();
    let decoded = value.field("s", "doc").unwrap().as_str("s").unwrap();
    assert_eq!(decoded, body.replace("\\n", "\n"));
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
}

#[test]
fn overflowing_numbers_are_rejected_typed() {
    for text in ["1e999", "-1e400", "[0, 1e309]"] {
        let err = Json::parse(text).unwrap_err();
        assert!(err.message.contains("out of range"), "{text}: {err}");
    }
    assert_eq!(Json::parse("1e308").unwrap(), Json::Num(1e308));
}

/// Fragments that steer random documents into every parser branch.
const FRAGMENTS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "d834", "\\udd1e", "00e9", "\\n", "\\q", "0",
    "-", "1", ".5", "e", "E+", "9e999", "null", "tru", "true", "false", " ", "\n", "\u{1}", "é",
    "€", "𝄞", "\u{ffff}", "key", "\u{0}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_parse_typed_or_roundtrip(
        picks in prop::collection::vec((0usize..FRAGMENTS.len() + 8, 0u8..255), 0..48),
    ) {
        let mut bytes = Vec::new();
        for (pick, byte) in picks {
            match FRAGMENTS.get(pick) {
                Some(f) => bytes.extend_from_slice(f.as_bytes()),
                None => bytes.push(byte),
            }
        }
        let _ = parse_roundtrip(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn arbitrary_strings_roundtrip_exactly(
        cps in prop::collection::vec(
            prop_oneof![0u32..0x80, 0u32..0x800, 0u32..0x1_0000, 0u32..0x11_0000],
            0..64,
        ),
    ) {
        let s: String = cps.into_iter().filter_map(char::from_u32).collect();
        let encoded = Json::Str(s.clone()).serialize();
        prop_assert_eq!(parse_roundtrip(&encoded).unwrap(), Json::Str(s.clone()));
        // Raw between quotes: plain text decodes as itself, anything the
        // grammar forbids is a typed error.
        let raw = format!("\"{s}\"");
        if !s.contains(['"', '\\']) && !s.chars().any(|c| (c as u32) < 0x20) {
            prop_assert_eq!(parse_roundtrip(&raw).unwrap(), Json::Str(s));
        } else {
            let _ = parse_roundtrip(&raw);
        }
    }
}
