//! Wire data plane: the zero-copy pooled codec against the
//! copy-and-materialize reference, plus the byte plane's contracts.
//!
//! 1. **Zero-copy pays.**  Encode + demux of seeded TCP/IP frames
//!    through pooled buffers and in-place header views must be at
//!    least 2x faster than the reference codec's materialize-every-
//!    layer path — the paper's avoid-data-touching argument measured at
//!    the byte level.
//! 2. **The pool is allocation-free at steady state.**  A serving run in
//!    zero-copy mode must recycle every buffer: `grows == 0`, one alloc
//!    per encoded frame, recycle rate ~1.
//! 3. **Bytes change nothing.**  The serving report in zero-copy and
//!    reference wire modes must equal the descriptor-mode report bit for
//!    bit on both planes at every probed executor count, and the two
//!    wire paths must agree on every decode counter.  The checked-in
//!    `tests/data/tcpip_roundtrip.pcap` must ingest, demux on both
//!    codecs, and re-emit byte-identically.
//!
//! The host section also times the lane in place: the serving run in
//! descriptor and zero-copy mode on the dispatch plane at one executor,
//! in pairs whose order alternates (each side the fastest of a few
//! runs); each pair's time difference per encoded frame is one sample
//! of `serve_wire_ns_per_msg`.

use std::time::Instant;

use netsim::buf::BufPool;
use netsim::rng::SplitMix64;
use protocols::wire::codec::{self, PktSpec};
use protocols::wire::reference;
use trace::pcap::{PcapSink, PcapSource};
use traffic::runloop::reference as runloop_reference;
use traffic::{run_traffic, FixedService, TrafficConfig, TrafficReport, WirePath, WireStats};

use crate::{ms, Bound, Clock, Ctx, Outcome, Samples};

const WORKERS: u32 = 3;
const SESSIONS_PER_WORKER: u32 = 192;
const RATE_MPS: u64 = 60_000;
/// Executor counts the bit-identity probe pins the dispatch plane to.
const EXECUTORS: [u32; 2] = [1, 3];

fn svc(_worker: u32) -> FixedService {
    FixedService {
        cache_hit_ns: 9_000,
        chain_hit_ns: 11_000,
        miss_ns: 40_000,
    }
}

/// Seeded corpus: specs + payload lengths covering the padding boundary
/// (tiny payloads) up to a few cache lines.
fn corpus(n: usize) -> Vec<(PktSpec, Vec<u8>)> {
    let mut rng = SplitMix64::new(0xB17E_57A7);
    (0..n)
        .map(|_| {
            let spec = PktSpec {
                src_ip: rng.next_u64() as u32,
                dst_ip: rng.next_u64() as u32,
                src_port: rng.next_u64() as u16,
                dst_port: rng.next_u64() as u16,
                seq: rng.next_u64() as u32,
                ack: rng.next_u64() as u32,
                ident: rng.next_u64() as u16,
                ..PktSpec::default()
            };
            let len = rng.below(193) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            (spec, payload)
        })
        .collect()
}

/// Fold a demux result into a running fingerprint so the two codec
/// passes are forced to do the work and provably agree.
fn fold(acc: u64, d: &codec::Demux) -> u64 {
    acc.rotate_left(7)
        ^ u64::from(d.src_ip)
        ^ (u64::from(d.src_port) << 32)
        ^ (d.payload_len as u64) << 48
        ^ u64::from(d.seq)
}

/// The report without its wire counters, for comparing against the
/// descriptor plane.
fn sans_wire(mut r: TrafficReport) -> TrafficReport {
    r.wire = WireStats::default();
    r
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (packets, rounds, messages) = if ctx.smoke {
        (256, 20, 2_000)
    } else {
        (2_048, 200, 10_000)
    };

    // Codec: pooled zero-copy vs materializing copies, best of 3.
    let pkts = corpus(packets);
    let mut pool = BufPool::new(1);
    let (mut zc_fp, mut ref_fp) = (0, 0);
    let zc = Samples::time_ms(ctx.reps(3), || {
        zc_fp = 0;
        for _ in 0..rounds {
            for (spec, payload) in &pkts {
                let h = pool.alloc();
                let buf = pool.bytes_mut(h).expect("fresh handle");
                let len = codec::encode_frame(buf, spec, payload);
                let bytes = pool.bytes(h).expect("live handle");
                zc_fp = fold(
                    zc_fp,
                    &codec::demux_frame(&bytes[..len]).expect("own frame demuxes"),
                );
                pool.free(h).expect("single free");
            }
        }
    });
    let refc = Samples::time_ms(ctx.reps(3), || {
        ref_fp = 0;
        for _ in 0..rounds {
            for (spec, payload) in &pkts {
                let frame = reference::encode_frame(spec, payload);
                ref_fp = fold(
                    ref_fp,
                    &reference::demux_frame(&frame).expect("own frame demuxes"),
                );
            }
        }
    });
    assert_eq!(zc_fp, ref_fp, "the two codecs parsed different packets");
    assert_eq!(pool.stats().grows, 0, "codec pool must stay at one buffer");
    let per_pkt = |s: &Samples| s.map(|ms| ms * 1e6 / (packets * rounds) as f64);
    let (zc_ns, ref_ns) = (per_pkt(&zc), per_pkt(&refc));
    let codec_speedup = ref_ns.min() / zc_ns.min();

    // Serving: bytes must change nothing.
    let base = TrafficConfig::open_loop(RATE_MPS, messages, SESSIONS_PER_WORKER)
        .with_workers(WORKERS)
        .with_shards(8, 24)
        .with_theta(900)
        .with_seed(0x77_1BE)
        .with_faults(4_000, 3_000, 2_500, 2_000)
        .with_wire_faults(3_000, 2_000, 2_500);
    let descriptor = runloop_reference::run_traffic(&base, svc).expect("descriptor run");
    let mut wire_bit_identical = true;
    let mut reports = Vec::new();
    for path in [WirePath::ZeroCopy, WirePath::Reference] {
        let cfg = base.with_wire(path);
        let fifo = runloop_reference::run_traffic(&cfg, svc).expect("reference-plane run");
        wire_bit_identical &= sans_wire(fifo.clone()) == descriptor;
        for executors in EXECUTORS {
            wire_bit_identical &=
                run_traffic(&cfg.with_executors(executors), svc).expect("dispatch run") == fifo;
        }
        reports.push(fifo);
    }
    wire_bit_identical &= reports[0].wire.decode_counters() == reports[1].wire.decode_counters();
    let w = &reports[0].wire;

    // The lane in place: zero-copy minus descriptor serving time per
    // encoded frame, in pairs whose order alternates so the order
    // effect does not land on the difference.
    let timed = |cfg: &TrafficConfig| {
        let mut best = f64::INFINITY;
        let mut report = None;
        for _ in 0..ctx.reps(3) {
            let t = Instant::now();
            report = Some(run_traffic(cfg, svc).expect("timed serving run"));
            best = best.min(ms(t));
        }
        (best, report.expect("at least one run"))
    };
    let desc_cfg = base.with_executors(1);
    let zc_cfg = base.with_wire(WirePath::ZeroCopy).with_executors(1);
    let lane_ns = Samples::new(
        (0..ctx.reps(11))
            .map(|i| {
                let ((desc_ms, desc), (zc_ms, zc)) = if i % 2 == 0 {
                    let desc = timed(&desc_cfg);
                    (desc, timed(&zc_cfg))
                } else {
                    let zc = timed(&zc_cfg);
                    (timed(&desc_cfg), zc)
                };
                assert_eq!(sans_wire(zc.clone()), desc, "timed runs diverged");
                (zc_ms - desc_ms) * 1e6 / zc.wire.encoded as f64
            })
            .collect(),
    );

    // The checked-in capture: ingest, demux on both codecs, re-emit.
    let pcap_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/tcpip_roundtrip.pcap"
    );
    let original = std::fs::read(pcap_path).expect("checked-in tcpip_roundtrip.pcap");
    let mut src = PcapSource::new(&original[..]).expect("valid capture");
    let mut sink = PcapSink::new(Vec::new()).expect("sink header");
    let mut pcap_frames = 0u64;
    while let Some(pkt) = src.next_packet().expect("clean record stream") {
        let d = codec::demux_frame(&pkt.data).expect("captured frame demuxes");
        assert_eq!(
            reference::demux_frame(&pkt.data),
            Ok(d),
            "codecs diverged on capture"
        );
        sink.emit(&pkt).expect("re-emit");
        pcap_frames += 1;
    }
    let pcap_roundtrip_ok = sink.finish().expect("finish") == original;

    let mut out = Outcome::new("wire");
    out.model
        .field("smoke", u8::from(ctx.smoke))
        .field("packets", packets)
        .field("rounds", rounds)
        .field("workers", WORKERS)
        .field("messages_per_worker", messages)
        .field("frames_encoded", w.encoded)
        .field("frames_demuxed", w.demuxed)
        .field("payload_bytes", w.payload_bytes)
        .field("bad_fcs", w.bad_fcs)
        .field("truncated", w.truncated)
        .field("malformed", w.malformed)
        .field("fragmented", w.fragmented)
        .field("pool_allocs", w.pool.allocs)
        .field("pool_recycled", w.pool.recycled)
        .field("pool_grows", w.pool.grows)
        .field("pool_high_water", w.pool.high_water)
        .field(
            "pool_recycle_rate",
            format_args!("{:.6}", w.pool.recycle_rate()),
        )
        .field("wire_bit_identical", wire_bit_identical)
        .field("pcap_frames", pcap_frames)
        .field("pcap_roundtrip_ok", u8::from(pcap_roundtrip_ok));
    out.host
        .samples("zero_copy_ns_per_pkt", &zc_ns)
        .samples("reference_ns_per_pkt", &ref_ns)
        .field("codec_speedup", format_args!("{codec_speedup:.3}"))
        .samples("serve_wire_ns_per_msg", &lane_ns);
    out.check("wire_bit_identical", wire_bit_identical);
    out.check(
        "every_anomaly_class_seen",
        w.bad_fcs > 0 && w.truncated > 0 && w.malformed > 0 && w.fragmented > 0,
    );
    out.gate(
        Clock::Model,
        "pool_grows",
        w.pool.grows as f64,
        Bound::Exactly(0.0),
    );
    out.gate(
        Clock::Model,
        "pool_allocs",
        w.pool.allocs as f64,
        Bound::Exactly(w.encoded as f64),
    );
    out.gate(
        Clock::Model,
        "pool_frees",
        w.pool.frees as f64,
        Bound::Exactly(w.pool.allocs as f64),
    );
    out.gate(
        Clock::Model,
        "pool_recycle_rate",
        w.pool.recycle_rate(),
        Bound::Above(0.99),
    );
    out.check("pcap_roundtrip_ok", pcap_roundtrip_ok);
    out.gate(
        Clock::Host,
        "codec_speedup",
        codec_speedup,
        Bound::AtLeast(2.0),
    );
    out
}
