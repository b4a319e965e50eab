//! Corrupt-input contract: truncated, version-skewed, bit-flipped, or
//! garbage trace files yield a typed `TraceError` (or, for benign
//! flips, a clean decode) — never a panic — and errors carry the byte
//! offset of the damage.

mod common;

use std::io::BufReader;

use common::gen_log;
use trace::{decode, encode, Format, TraceError, TraceEvent, TraceReader};

fn assert_offset_sane(err: &TraceError, len: usize) {
    let off = match err {
        TraceError::Io(_) | TraceError::Invalid { .. } => return,
        TraceError::BadMagic { offset }
        | TraceError::Version { offset, .. }
        | TraceError::Truncated { offset }
        | TraceError::BadTag { offset, .. }
        | TraceError::Malformed { offset, .. }
        | TraceError::BadJson { offset, .. }
        | TraceError::CountMismatch { offset, .. }
        | TraceError::MissingEnd { offset } => *offset,
    };
    assert!(off <= len as u64, "error offset {off} beyond input length {len}: {err}");
}

#[test]
fn every_truncation_point_errors_cleanly() {
    let log = gen_log(11, 40);
    for fmt in [Format::Binary, Format::Json] {
        let bytes = encode(&log, fmt);
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut], fmt) {
                // A cut that removes only the final newline of the JSON
                // trailer loses no data; decoding the full log then is
                // correct.  Any cut that loses semantic bytes must error.
                Ok(decoded) => {
                    assert_eq!(decoded, log, "{fmt:?}: cut at {cut} decoded to a different log");
                    assert!(
                        bytes[cut..].iter().all(|b| *b == b'\n'),
                        "{fmt:?}: cut at {cut} lost semantic bytes yet decoded"
                    );
                }
                Err(e) => assert_offset_sane(&e, cut),
            }
        }
        assert!(decode(&bytes, fmt).is_ok());
    }
}

#[test]
fn seeded_bit_flips_never_panic() {
    let log = gen_log(13, 60);
    let mut rng = netsim::rng::SplitMix64::new(0xF1_1B);
    for fmt in [Format::Binary, Format::Json] {
        let bytes = encode(&log, fmt);
        for _ in 0..2000 {
            let mut mutated = bytes.clone();
            let idx = rng.below(mutated.len() as u64) as usize;
            mutated[idx] ^= 1u8 << rng.below(8);
            // Must return, Ok or Err — the panic is the failure mode
            // under test.
            match decode(&mutated, fmt) {
                Ok(_) => {}
                Err(e) => {
                    assert_offset_sane(&e, mutated.len());
                    let _ = e.to_string();
                }
            }
        }
    }
}

#[test]
fn seeded_multi_flip_and_splice_never_panic() {
    let log = gen_log(17, 30);
    let mut rng = netsim::rng::SplitMix64::new(0x5EED);
    for fmt in [Format::Binary, Format::Json] {
        let bytes = encode(&log, fmt);
        for _ in 0..400 {
            let mut mutated = bytes.clone();
            for _ in 0..1 + rng.below(8) {
                let idx = rng.below(mutated.len() as u64) as usize;
                mutated[idx] = rng.next_u64() as u8;
            }
            // Also splice: cut a random chunk out of the middle.
            let a = rng.below(mutated.len() as u64) as usize;
            let b = rng.below(mutated.len() as u64) as usize;
            let (lo, hi) = (a.min(b), a.max(b));
            mutated.drain(lo..hi);
            if let Err(e) = decode(&mutated, fmt) {
                assert_offset_sane(&e, mutated.len());
            }
        }
    }
}

#[test]
fn version_skew_is_typed() {
    let log = gen_log(19, 5);

    // Binary: version lives in bytes 4..6 (little-endian u16).
    let mut bytes = encode(&log, Format::Binary);
    bytes[4] = 0x63;
    bytes[5] = 0x00;
    match decode(&bytes, Format::Binary) {
        Err(TraceError::Version { found: 0x63, supported, offset: 4 }) => {
            assert_eq!(supported, trace::FORMAT_VERSION);
        }
        other => panic!("expected Version error, got {other:?}"),
    }

    // JSON: version lives in the header line.
    let text = String::from_utf8(encode(&log, Format::Json)).unwrap();
    let skewed = text.replacen(
        &format!("\"version\":{}", trace::FORMAT_VERSION),
        "\"version\":99",
        1,
    );
    match decode(skewed.as_bytes(), Format::Json) {
        Err(TraceError::Version { found: 99, offset: 0, .. }) => {}
        other => panic!("expected Version error, got {other:?}"),
    }
}

#[test]
fn garbage_input_is_bad_magic() {
    let mut rng = netsim::rng::SplitMix64::new(0x6A6B);
    for fmt in [Format::Binary, Format::Json] {
        for len in [0usize, 1, 5, 64, 4096] {
            let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            match decode(&garbage, fmt) {
                Ok(_) => panic!("{fmt:?}: {len} garbage bytes decoded"),
                Err(e) => assert_offset_sane(&e, len),
            }
        }
        // Empty input specifically: truncated/bad-magic at offset 0.
        match decode(&[], fmt) {
            Err(TraceError::Truncated { offset: 0 }) | Err(TraceError::BadMagic { offset: 0 }) => {}
            other => panic!("{fmt:?}: empty input gave {other:?}"),
        }
    }
}

#[test]
fn spliced_out_event_is_count_mismatch() {
    // Deleting one event line from a JSON trace leaves every remaining
    // line well-formed; only the end trailer's count catches it.
    let log = gen_log(23, 10);
    let text = String::from_utf8(encode(&log, Format::Json)).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.remove(3);
    let spliced = lines.join("\n") + "\n";
    match decode(spliced.as_bytes(), Format::Json) {
        Err(TraceError::CountMismatch { declared, seen, .. }) => {
            assert_eq!(declared, log.len() as u64);
            assert_eq!(seen, log.len() as u64 - 1);
        }
        other => panic!("expected CountMismatch, got {other:?}"),
    }
}

#[test]
fn data_after_end_trailer_is_rejected() {
    let log = gen_log(29, 5);
    for fmt in [Format::Binary, Format::Json] {
        let mut bytes = encode(&log, fmt);
        bytes.extend_from_slice(b"extra");
        match decode(&bytes, fmt) {
            Err(TraceError::Malformed { what, .. }) => {
                assert_eq!(what, "data after end trailer");
            }
            other => panic!("{fmt:?}: expected trailing-data error, got {other:?}"),
        }
    }
}

#[test]
fn unknown_binary_tag_is_typed() {
    let log = gen_log(31, 3);
    let mut bytes = encode(&log, Format::Binary);
    // First record tag is at byte 6 (after magic + version).
    bytes[6] = 0xEE;
    match decode(&bytes, Format::Binary) {
        Err(TraceError::BadTag { tag: 0xEE, offset: 6 }) => {}
        other => panic!("expected BadTag, got {other:?}"),
    }
}

#[test]
fn errors_render_with_offsets() {
    let msg = TraceError::Truncated { offset: 1234 }.to_string();
    assert!(msg.contains("1234"), "{msg}");
    let msg = TraceError::BadJson { line: 7, offset: 90, what: "arrival lane" }.to_string();
    assert!(msg.contains('7') && msg.contains("90") && msg.contains("arrival lane"), "{msg}");
}

#[test]
fn fixed_size_records_reject_any_other_length() {
    // Arrival, Fate, Rto and End payloads have one legal length each;
    // a length prefix one short or one long is `Malformed` at the
    // record, naming its kind.  (A long End record instead runs off
    // the input: `Truncated`.)
    let log = vec![
        TraceEvent::Config(Box::new(common::gen_config(&mut netsim::rng::SplitMix64::new(3)))),
        TraceEvent::Arrival { lane: 1, at: 2, session: 3 },
        TraceEvent::Fate { lane: 1, fate: netsim::Fate::Dropped },
        TraceEvent::Rto(Box::new(trace::RtoRec { lane: 1, at: 4, session: 3, born: 2 })),
    ];
    let bytes = encode(&log, Format::Binary);
    let mut at = 6;
    let mut seen = Vec::new();
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap());
        let what = match bytes[at] {
            1 => None,
            2 => Some("arrival record"),
            3 => Some("fate record"),
            4 => Some("rto record"),
            6 => Some("end record"),
            tag => panic!("unexpected tag {tag}"),
        };
        if let Some(what) = what {
            seen.push(what);
            for lie in [len - 1, len + 1] {
                let mut bad = bytes.clone();
                bad[at + 1..at + 5].copy_from_slice(&lie.to_le_bytes());
                let offset = at as u64;
                match decode(&bad, Format::Binary) {
                    Err(TraceError::Malformed { offset: o, what: w }) if (o, w) == (offset, what) => {}
                    Err(TraceError::Truncated { offset: o }) if what == "end record" && lie > len => {
                        assert_eq!(o, offset);
                    }
                    other => panic!("{what} with length {lie} (not {len}) gave {other:?}"),
                }
            }
        }
        at += 5 + len as usize;
    }
    assert_eq!(seen, ["arrival record", "fate record", "rto record", "end record"]);
}

/// The seeded single-bit-flip corpus of `seeded_bit_flips_never_panic`.
fn bit_flip_corpus(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut rng = netsim::rng::SplitMix64::new(0xF1_1B);
    (0..2000)
        .map(|_| {
            let mut mutated = bytes.to_vec();
            let idx = rng.below(mutated.len() as u64) as usize;
            mutated[idx] ^= 1u8 << rng.below(8);
            mutated
        })
        .collect()
}

/// The seeded multi-flip-and-splice corpus of
/// `seeded_multi_flip_and_splice_never_panic`.
fn splice_corpus(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut rng = netsim::rng::SplitMix64::new(0x5EED);
    (0..400)
        .map(|_| {
            let mut mutated = bytes.to_vec();
            for _ in 0..1 + rng.below(8) {
                let idx = rng.below(mutated.len() as u64) as usize;
                mutated[idx] = rng.next_u64() as u8;
            }
            let a = rng.below(mutated.len() as u64) as usize;
            let b = rng.below(mutated.len() as u64) as usize;
            let (lo, hi) = (a.min(b), a.max(b));
            mutated.drain(lo..hi);
            mutated
        })
        .collect()
}

#[test]
fn buffered_reader_matches_in_memory_decode() {
    // `decode` parses every record in place out of the slice; a reader
    // whose buffer is smaller than a record must take the copying path
    // and reach the same log, or the same error (variant, offset and
    // `what`), on every input.
    let truncations = {
        let bytes = encode(&gen_log(11, 40), Format::Binary);
        (0..=bytes.len()).map(|cut| bytes[..cut].to_vec()).collect::<Vec<_>>()
    };
    let flips = bit_flip_corpus(&encode(&gen_log(13, 60), Format::Binary));
    let splices = splice_corpus(&encode(&gen_log(17, 30), Format::Binary));
    for (corpus, inputs) in [("truncation", truncations), ("bit flip", flips), ("splice", splices)] {
        for (i, input) in inputs.iter().enumerate() {
            let in_place = format!("{:?}", decode(input, Format::Binary));
            for k in [1, 5, 7, 64] {
                let read = TraceReader::new(BufReader::with_capacity(k, &input[..]), Format::Binary)
                    .and_then(|r| r.collect::<Result<Vec<_>, _>>());
                assert_eq!(
                    format!("{read:?}"),
                    in_place,
                    "{corpus} input {i}: a {k}-byte reader buffer disagrees with decode"
                );
            }
        }
    }
}
