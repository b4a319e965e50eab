//! Binary↔JSON round-trip property suite: encode→decode→encode is a
//! fixed point for both formats, the formats agree on every log, and
//! the streaming file path (extension auto-detection included) is
//! lossless.

mod common;

use common::gen_log;
use netsim::Fate;
use trace::{
    decode, encode, fingerprint, read_events, write_events, ConfigRecord, Format, PhaseRec,
    RtoRec, StreamRec, TraceEvent, TraceWriter, VerdictRec, MAX_PHASES,
};

const SEEDS: [u64; 8] = [0, 1, 2, 0xDEAD_BEEF, 0x7EA5, 42, 1996, u64::MAX];

#[test]
fn binary_encode_decode_is_fixed_point() {
    for seed in SEEDS {
        let log = gen_log(seed, 200);
        let bytes = encode(&log, Format::Binary);
        let decoded = decode(&bytes, Format::Binary).expect("clean decode");
        assert_eq!(decoded, log, "seed {seed}: binary decode lost events");
        assert_eq!(
            encode(&decoded, Format::Binary),
            bytes,
            "seed {seed}: binary re-encode not byte-identical"
        );
    }
}

#[test]
fn json_encode_decode_is_fixed_point() {
    for seed in SEEDS {
        let log = gen_log(seed, 200);
        let bytes = encode(&log, Format::Json);
        let decoded = decode(&bytes, Format::Json).expect("clean decode");
        assert_eq!(decoded, log, "seed {seed}: json decode lost events");
        assert_eq!(
            encode(&decoded, Format::Json),
            bytes,
            "seed {seed}: json re-encode not byte-identical"
        );
    }
}

#[test]
fn cross_format_equivalence() {
    // A binary log re-emitted as JSON decodes to the identical event
    // sequence, and vice versa.
    for seed in SEEDS {
        let log = gen_log(seed, 150);
        let via_binary = decode(&encode(&log, Format::Binary), Format::Binary).unwrap();
        let as_json = encode(&via_binary, Format::Json);
        let via_json = decode(&as_json, Format::Json).unwrap();
        assert_eq!(via_json, log, "seed {seed}: binary→json→decode diverged");
        let back = decode(&encode(&via_json, Format::Binary), Format::Binary).unwrap();
        assert_eq!(back, log, "seed {seed}: json→binary→decode diverged");
    }
}

#[test]
fn empty_log_round_trips() {
    for fmt in [Format::Binary, Format::Json] {
        let bytes = encode(&[], fmt);
        assert_eq!(decode(&bytes, fmt).unwrap(), Vec::new());
    }
}

#[test]
fn file_round_trip_auto_detects_format() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let log = gen_log(7, 100);

    let bin_path = dir.join(format!("protolat_rt_{pid}.trace"));
    write_events(&bin_path, &log).unwrap();
    assert_eq!(read_events(&bin_path).unwrap(), log);
    let on_disk = std::fs::read(&bin_path).unwrap();
    assert_eq!(on_disk, encode(&log, Format::Binary), "file path and in-memory codec differ");
    std::fs::remove_file(&bin_path).unwrap();

    let json_path = dir.join(format!("protolat_rt_{pid}.json"));
    write_events(&json_path, &log).unwrap();
    assert_eq!(read_events(&json_path).unwrap(), log);
    let on_disk = std::fs::read(&json_path).unwrap();
    assert_eq!(on_disk, encode(&log, Format::Json), "file path and in-memory codec differ");
    std::fs::remove_file(&json_path).unwrap();
}

#[test]
fn fingerprint_is_stable_and_discriminating() {
    let a = gen_log(1, 100);
    let b = gen_log(2, 100);
    assert_eq!(fingerprint(&a), fingerprint(gen_log(1, 100)));
    assert_ne!(fingerprint(&a), fingerprint(&b));
    // Fingerprint is content-addressed, not format-addressed: decoding
    // from JSON yields the same fingerprint.
    let via_json = decode(&encode(&a, Format::Json), Format::Json).unwrap();
    assert_eq!(fingerprint(&via_json), fingerprint(&a));
}

#[test]
fn json_is_line_oriented_and_diffable() {
    let log = gen_log(3, 50);
    let text = String::from_utf8(encode(&log, Format::Json)).expect("json codec emits UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    // Header + one line per event + end trailer.
    assert_eq!(lines.len(), 1 + log.len() + 1);
    assert!(lines[0].contains("\"trace\":\"protolat\""));
    assert!(lines.last().unwrap().starts_with("{\"t\":\"end\""));
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "not one object per line: {line}");
    }
}

/// FNV-1a over raw bytes, written out independently of the crate's
/// own fingerprint so the pin checks the digest, not just agreement.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A hand-built log holding every record kind: a config with phases,
/// a verdict with strings that need JSON escaping, and one each of
/// arrival, fate and RTO (the end trailer comes from the encoder).
fn every_kind_log() -> Vec<TraceEvent> {
    let stream = |kind, a, b| StreamRec { kind, a, b };
    let mut phases = [PhaseRec::default(); MAX_PHASES];
    phases[0] = PhaseRec {
        stream: stream(1, 750, 0),
        milli_theta: 900,
        duration_ns: 50_000_000,
        settle_ns: 8_000_000,
    };
    phases[1] = PhaseRec {
        stream: stream(3, 8, 3),
        milli_theta: 1_100,
        duration_ns: 0,
        settle_ns: 4_000_000,
    };
    let config = ConfigRecord {
        scenario_kind: 0,
        scenario_a: 20_000,
        scenario_b: 0,
        messages_per_worker: 2_000,
        sessions: 64,
        shards: 8,
        shard_capacity: 24,
        shard_budget_bytes: 4_096,
        milli_theta: 900,
        workers: 4,
        executors: 2,
        seed: 0x7EA5,
        drop_ppm: 3_000,
        corrupt_ppm: 1_500,
        reorder_ppm: 3_000,
        duplicate_ppm: 1_500,
        wire_kind: 2,
        truncate_ppm: 100,
        malform_ppm: 200,
        fragment_ppm: 300,
        policy_kind: 2,
        policy_param: 4,
        stream: stream(2, 800, 0),
        n_phases: 2,
        phases,
    };
    vec![
        TraceEvent::Config(Box::new(config)),
        TraceEvent::Arrival { lane: 0, at: 1_234_567, session: 17 },
        TraceEvent::Arrival { lane: 3, at: u64::MAX, session: u32::MAX },
        TraceEvent::Rto(Box::new(RtoRec { lane: 1, at: 9_000_000, session: 5, born: 8_000_000 })),
        TraceEvent::Fate { lane: 0, fate: Fate::Delivered },
        TraceEvent::Fate { lane: 2, fate: Fate::Duplicated },
        TraceEvent::Verdict(Box::new(VerdictRec {
            lane: 1,
            at: 77_000_000,
            trigger_fp: 0x0123_4567_89ab_cdef,
            from: "base".to_string(),
            to: "clone:\"tcp\"\\4\n".to_string(),
            noop: false,
        })),
        TraceEvent::Verdict(Box::new(VerdictRec {
            lane: 2,
            at: 0,
            trigger_fp: u64::MAX,
            from: String::new(),
            to: "outlined".to_string(),
            noop: true,
        })),
    ]
}

#[test]
fn encodings_are_pinned() {
    // Byte length and FNV-1a digest of each encoding of a log holding
    // every record kind.  Any change to either codec's output moves
    // these; a codec rewrite must leave them alone.
    let log = every_kind_log();
    let binary = encode(&log, Format::Binary);
    let json = encode(&log, Format::Json);
    assert_eq!((binary.len(), fnv1a(&binary)), (363, 0x4963_81db_0714_a3f3), "binary encoding moved");
    assert_eq!((json.len(), fnv1a(&json)), (1256, 0x2ce9_060a_1796_ce4f), "json encoding moved");
    assert_eq!(fingerprint(&log), fnv1a(&binary), "fingerprint is FNV-1a over the binary bytes");
    assert_eq!(decode(&binary, Format::Binary).unwrap(), log);
    assert_eq!(decode(&json, Format::Json).unwrap(), log);
}

#[test]
fn one_pass_encode_matches_the_streaming_writer() {
    // `encode` sizes its output up front and appends each record
    // straight into it; the writer stages records one at a time.  Both
    // must emit the same bytes, and the reservation must be exact.
    let streamed = |log: &[TraceEvent]| {
        let mut w = TraceWriter::new(Vec::new(), Format::Binary).unwrap();
        for ev in log {
            w.write(ev).unwrap();
        }
        w.finish().unwrap()
    };
    for log in [every_kind_log(), gen_log(7, 500), Vec::new()] {
        let bytes = encode(&log, Format::Binary);
        assert_eq!(bytes, streamed(&log), "one-pass encode differs from the writer");
        assert_eq!(bytes.capacity(), bytes.len(), "the reservation is not exact");
        assert_eq!(fingerprint(log.iter().cloned()), fnv1a(&bytes), "owned events fingerprint");
    }
}
