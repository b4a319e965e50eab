//! Wire data-plane lane state: pooled packet buffers plus byte-level
//! encode/demux threaded through the serving loop.
//!
//! In descriptor mode (the seed behaviour) a message is a `(session,
//! born)` pair and no bytes exist.  In wire mode every send is encoded
//! to a real Ethernet/IPv4/TCP frame — into a recycled
//! [`netsim::BufPool`] buffer on the zero-copy path, into fresh `Vec`
//! copies on the reference path — the fault injector operates on those
//! bytes, and whatever survives is demuxed *from the bytes*: the
//! session rank handed to the server is re-derived from the parsed
//! 4-tuple, never trusted from the generator.
//!
//! The zero-copy lane re-encodes in place.  The pool hands back the
//! slot it freed last (LIFO), and after an intact send that slot still
//! holds the frame just sent, so the next frame only patches the
//! per-message fields, checksums and FCS
//! ([`codec::reencode_frame`]); a first send, another slot, or a slot
//! the injector or a shaped re-encode wrote to gets a full encode.
//! Both give the same bytes.
//!
//! The wire layer adds no modelled nanoseconds and consumes no RNG
//! draws of its own, so for a fixed configuration the three paths
//! produce bit-identical latency reports.  Its real cost is host time:
//! the `wire` bench suite reports it twice — the codec alone (`zero_copy_ns_per_pkt`)
//! and the lane in place (`serve_wire_ns_per_msg`, zero-copy minus
//! descriptor serving time per message).

use netsim::buf::{BufPool, PktBuf, PoolStats};
use netsim::{Fate, Ns};
use protocols::wire::codec::{self, Demux, PktSpec, Shape};
use protocols::wire::reference;
use protocols::ErrorClass;

use crate::session::DemuxKey;

/// How messages are represented on their way through the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WirePath {
    /// Descriptor-only modelling: no bytes exist (seed behaviour).
    #[default]
    Descriptor,
    /// Zero-copy: pooled recycled buffers, in-place header views.
    ZeroCopy,
    /// Copy-and-materialize reference codec (the equivalence twin and
    /// the cost baseline the `wire` bench suite compares against).
    Reference,
}

impl WirePath {
    /// Wire-stable code (matches `trace::wire_name`).
    pub fn code(self) -> u8 {
        match self {
            WirePath::Descriptor => 0,
            WirePath::ZeroCopy => 1,
            WirePath::Reference => 2,
        }
    }

    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(WirePath::Descriptor),
            1 => Some(WirePath::ZeroCopy),
            2 => Some(WirePath::Reference),
            _ => None,
        }
    }
}

/// Byte-path counters, merged across lanes into the run report.  All
/// decode-derived: zero in descriptor mode (fate-level counts live in
/// `FaultStats` for every mode).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames encoded to wire bytes (one per send, retransmits included).
    pub encoded: u64,
    /// Frames that parsed cleanly end-to-end and reached the demux.
    pub demuxed: u64,
    /// TCP payload bytes carried by cleanly demuxed frames.
    pub payload_bytes: u64,
    /// Frames discarded at the link layer (injector bit corruption —
    /// provably caught by the FCS, so counted without a parse to keep
    /// record and replay byte-identical).
    pub bad_fcs: u64,
    /// Frames cut short on the wire; typed decode error, class
    /// [`ErrorClass::Truncated`].
    pub truncated: u64,
    /// Frames with mangled headers; class [`ErrorClass::Malformed`].
    pub malformed: u64,
    /// IP fragments this plane cannot reassemble; class
    /// [`ErrorClass::Fragmented`].
    pub fragmented: u64,
    /// Buffer-pool counters (zero-copy path only; the reference path
    /// allocates fresh copies by design).
    pub pool: PoolStats,
}

impl WireStats {
    pub fn merge(&mut self, other: &WireStats) {
        self.encoded += other.encoded;
        self.demuxed += other.demuxed;
        self.payload_bytes += other.payload_bytes;
        self.bad_fcs += other.bad_fcs;
        self.truncated += other.truncated;
        self.malformed += other.malformed;
        self.fragmented += other.fragmented;
        self.pool.merge(&other.pool);
    }

    /// The decode-outcome counters alone (pool excluded): these must be
    /// identical between the zero-copy and reference paths.
    pub fn decode_counters(&self) -> [u64; 7] {
        [
            self.encoded,
            self.demuxed,
            self.payload_bytes,
            self.bad_fcs,
            self.truncated,
            self.malformed,
            self.fragmented,
        ]
    }
}

/// TCP payload carried by every simulated message: enough to round-trip
/// the descriptor through the bytes.
const PAYLOAD_LEN: usize = 16;

/// One lane's wire-mode state.  At most one frame is ever in flight
/// (encode → injector → resolve happen within a single arrival), so the
/// pool's steady state is a single recycled buffer and `grows` must
/// stay 0 for the whole run.
pub(crate) struct WireLane {
    path: WirePath,
    pool: BufPool,
    stats: WireStats,
    /// Zero-copy path: the in-flight pooled buffer.
    cur: Option<PktBuf>,
    /// Zero-copy path: the free slot that holds exactly
    /// `encode_frame(spec, payload)` — the last frame sent, untouched
    /// since — so encoding into it again patches instead of rewriting.
    pristine: Option<usize>,
    /// Reference path: the in-flight frame (a fresh copy per packet, by
    /// design — that allocation is part of the measured cost).
    frame: Vec<u8>,
    cur_len: usize,
    /// The spec/payload of the in-flight frame, kept for shaped
    /// re-encodes (truncation/malform/fragment decide what *arrives*).
    spec: PktSpec,
    payload: [u8; PAYLOAD_LEN],
    /// The rank the in-flight frame was sent for.
    rank: u32,
    worker_idx: u32,
    workers: u32,
}

impl WireLane {
    pub(crate) fn new(path: WirePath, worker_idx: u32, workers: u32) -> Self {
        WireLane {
            path,
            // One buffer in flight at a time; 2 slots of slack so a
            // future pipelined lane would still not grow mid-run.
            pool: BufPool::new(2),
            stats: WireStats::default(),
            cur: None,
            pristine: None,
            frame: Vec::new(),
            cur_len: 0,
            spec: PktSpec::default(),
            payload: [0; PAYLOAD_LEN],
            rank: 0,
            worker_idx,
            workers,
        }
    }

    pub(crate) fn on(&self) -> bool {
        self.path != WirePath::Descriptor
    }

    /// Encode the outgoing message as a real frame.  No-op in
    /// descriptor mode.
    pub(crate) fn encode(&mut self, global_session: u64, session: u32, born: Ns) {
        if !self.on() {
            return;
        }
        let key = DemuxKey::for_session(global_session);
        // Only the per-message fields change; the rest stay as the
        // lane's first frame set them (the `PktSpec` defaults).
        let (prev, prev_payload) = (self.spec, self.payload);
        let spec = PktSpec {
            src_ip: key.src_ip,
            dst_ip: key.dst_ip,
            src_port: key.src_port,
            dst_port: key.dst_port,
            seq: born as u32,
            ack: (born >> 32) as u32,
            ident: global_session as u16,
            ..prev
        };
        // Payload: session, born, worker index, little-endian.
        let mut payload = [0u8; PAYLOAD_LEN];
        payload[..8].copy_from_slice(&(u64::from(session) | born << 32).to_le_bytes());
        payload[8..]
            .copy_from_slice(&(born >> 32 | u64::from(self.worker_idx) << 32).to_le_bytes());
        self.spec = spec;
        self.payload = payload;
        self.rank = session;
        match self.path {
            WirePath::ZeroCopy => {
                let h = self.pool.alloc();
                let buf = self.pool.bytes_mut(h).expect("fresh handle is live");
                self.cur_len = if self.pristine == Some(h.slot()) {
                    codec::reencode_frame(buf, &prev, &prev_payload, &spec, &payload)
                } else {
                    codec::encode_frame(buf, &spec, &payload)
                };
                debug_assert!(
                    {
                        let mut full = [0u8; codec::wire_len(PAYLOAD_LEN)];
                        let n = codec::encode_frame(&mut full, &spec, &payload);
                        buf[..self.cur_len] == full[..n]
                    },
                    "in-place re-encode diverged from a full encode"
                );
                self.cur = Some(h);
            }
            WirePath::Reference => {
                self.frame = reference::encode_frame(&spec, &payload);
                self.cur_len = self.frame.len();
            }
            WirePath::Descriptor => unreachable!(),
        }
        self.stats.encoded += 1;
    }

    /// The in-flight frame's bytes, for the injector to scribble on.
    pub(crate) fn frame_mut(&mut self) -> Option<&mut [u8]> {
        match self.path {
            WirePath::Descriptor => None,
            WirePath::ZeroCopy => {
                let h = self.cur.expect("encode precedes the injector");
                let buf = self.pool.bytes_mut(h).expect("in-flight handle is live");
                Some(&mut buf[..self.cur_len])
            }
            WirePath::Reference => Some(&mut self.frame[..self.cur_len]),
        }
    }

    /// Resolve what actually arrived: parse surviving frames back out
    /// of the bytes (shaped fates re-encode the broken variant first),
    /// free the buffer, and return the session rank the *demux* says —
    /// `None` when nothing decodable arrived or in descriptor mode.
    pub(crate) fn resolve(&mut self, fate: Fate) -> Option<u32> {
        if !self.on() {
            return None;
        }
        let arrived = match fate {
            Fate::Delivered | Fate::Reordered | Fate::Duplicated => {
                let d = match self.demux() {
                    Ok(d) => d,
                    Err(e) => panic!("intact frame failed demux: {e}"),
                };
                self.stats.demuxed += 1;
                self.stats.payload_bytes += d.payload_len as u64;
                Some(self.rank_of(&d))
            }
            Fate::Dropped => None,
            Fate::Corrupted => {
                // The injector flipped one bit; the FCS provably
                // catches any single-bit flip (see the codec's
                // every-byte sweep), so the link layer discards it.
                // Counted from the fate — replayed runs apply fates
                // without mutating bytes, and parsing here would let
                // the two diverge.
                self.stats.bad_fcs += 1;
                None
            }
            Fate::Truncated => {
                self.expect_shaped(Shape::Truncated, ErrorClass::Truncated);
                self.stats.truncated += 1;
                None
            }
            Fate::Malformed => {
                self.expect_shaped(Shape::Malformed, ErrorClass::Malformed);
                self.stats.malformed += 1;
                None
            }
            Fate::Fragmented => {
                self.expect_shaped(Shape::Fragmented, ErrorClass::Fragmented);
                self.stats.fragmented += 1;
                None
            }
        };
        // Only the injector's bit flip and the shaped re-encodes write
        // to an in-flight frame; every other fate leaves it as sent.
        let intact = matches!(
            fate,
            Fate::Delivered | Fate::Reordered | Fate::Duplicated | Fate::Dropped
        );
        self.release(intact);
        arrived
    }

    fn demux(&self) -> Result<Demux, protocols::WireError> {
        match self.path {
            WirePath::ZeroCopy => {
                let h = self.cur.expect("encode precedes resolve");
                let bytes = self.pool.bytes(h).expect("in-flight handle is live");
                codec::demux_frame(&bytes[..self.cur_len])
            }
            WirePath::Reference => reference::demux_frame(&self.frame[..self.cur_len]),
            WirePath::Descriptor => unreachable!(),
        }
    }

    /// Re-encode the in-flight message in the broken shape the injector
    /// chose, push it through the real parser, and check the typed
    /// error lands in the expected class — the anomaly counter is a
    /// genuine decode verdict, not an echo of the fate.
    fn expect_shaped(&mut self, shape: Shape, class: ErrorClass) {
        let err = match self.path {
            WirePath::ZeroCopy => {
                let h = self.cur.expect("encode precedes resolve");
                let buf = self.pool.bytes_mut(h).expect("in-flight handle is live");
                let len = codec::encode_frame_shaped(buf, &self.spec, &self.payload, shape);
                let bytes = self.pool.bytes(h).expect("in-flight handle is live");
                codec::demux_frame(&bytes[..len]).expect_err("shaped frame must not demux")
            }
            WirePath::Reference => {
                let frame = reference::encode_frame_shaped(&self.spec, &self.payload, shape);
                reference::demux_frame(&frame).expect_err("shaped frame must not demux")
            }
            WirePath::Descriptor => unreachable!(),
        };
        assert_eq!(err.class(), class, "shaped decode error mis-classified: {err}");
    }

    /// Session rank from the parsed 4-tuple: the id the 4-tuple decodes
    /// to (the inverse of [`DemuxKey::for_session`]) must be the one
    /// the frame was sent for, `rank · workers + lane`.
    fn rank_of(&self, d: &Demux) -> u32 {
        assert_eq!(d.dst_ip, 0xC0A8_0001, "demux produced a foreign destination");
        assert_eq!(d.dst_port, 7, "demux produced a foreign port");
        let id = u64::from(d.src_ip & 0x00FF_FFFF) | (u64::from(d.src_port) << 24);
        let sent = u64::from(self.rank) * u64::from(self.workers) + u64::from(self.worker_idx);
        assert_eq!(id, sent, "demux produced a foreign session id");
        self.rank
    }

    /// Return the in-flight buffer; `intact` says whether it still
    /// holds the frame as encoded.
    fn release(&mut self, intact: bool) {
        match self.path {
            WirePath::ZeroCopy => {
                let h = self.cur.take().expect("a frame is in flight");
                self.pool
                    .free(h)
                    .expect("in-flight buffer frees exactly once");
                self.pristine = intact.then_some(h.slot());
            }
            WirePath::Reference => self.frame = Vec::new(),
            WirePath::Descriptor => unreachable!(),
        }
        self.cur_len = 0;
    }

    /// Fold the pool counters in and surface the lane's stats.
    pub(crate) fn finish(mut self) -> WireStats {
        debug_assert!(self.cur.is_none(), "run ended with a frame in flight");
        self.stats.pool = self.pool.stats();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_path_codes_round_trip() {
        for p in [WirePath::Descriptor, WirePath::ZeroCopy, WirePath::Reference] {
            assert_eq!(WirePath::from_code(p.code()), Some(p));
        }
        assert_eq!(WirePath::from_code(3), None);
    }

    #[test]
    fn lane_round_trips_a_message_through_bytes() {
        for path in [WirePath::ZeroCopy, WirePath::Reference] {
            let mut lane = WireLane::new(path, 1, 4);
            // global id for rank 7 on lane 1 of 4 workers.
            lane.encode(7 * 4 + 1, 7, 0xABCD);
            assert_eq!(lane.frame_mut().unwrap().len(), codec::wire_len(PAYLOAD_LEN));
            assert_eq!(lane.resolve(Fate::Delivered), Some(7));
            let stats = lane.finish();
            assert_eq!(stats.demuxed, 1);
            assert_eq!(stats.payload_bytes, PAYLOAD_LEN as u64);
        }
    }

    #[test]
    fn shaped_fates_count_typed_decode_errors() {
        let mut lane = WireLane::new(WirePath::ZeroCopy, 0, 1);
        for fate in [
            Fate::Truncated,
            Fate::Malformed,
            Fate::Fragmented,
            Fate::Corrupted,
            Fate::Dropped,
        ] {
            lane.encode(3, 3, 99);
            assert_eq!(lane.resolve(fate), None);
        }
        let stats = lane.finish();
        assert_eq!(
            (stats.truncated, stats.malformed, stats.fragmented, stats.bad_fcs),
            (1, 1, 1, 1)
        );
        assert_eq!(stats.encoded, 5);
        assert_eq!(stats.demuxed, 0);
    }

    #[test]
    fn reused_buffer_frames_match_the_reference_encoder() {
        // A seeded fate sequence over one zero-copy lane — every fate,
        // runs of each included — with births past 2^32 (non-zero ack)
        // and global ids past 2^24 (non-zero source port).  Live runs
        // flip a bit of corrupted frames as the injector does; replayed
        // ones apply fates to untouched bytes.  Every frame the lane
        // sends, re-encoded in place or not, must equal the reference
        // twin's encoding of the same message byte for byte.
        let fates = [
            Fate::Delivered,
            Fate::Dropped,
            Fate::Corrupted,
            Fate::Reordered,
            Fate::Duplicated,
            Fate::Truncated,
            Fate::Malformed,
            Fate::Fragmented,
        ];
        let (lane_idx, workers) = (2u32, 3u32);
        for live in [true, false] {
            let mut rng = netsim::rng::SplitMix64::new(0xB0FF_E125 ^ u64::from(live));
            let mut lane = WireLane::new(WirePath::ZeroCopy, lane_idx, workers);
            let mut seen = [0u32; 8];
            let mut fate = Fate::Delivered;
            for i in 0..4_000u32 {
                let rank = rng.below(1 << 23) as u32;
                let global = u64::from(rank) * u64::from(workers) + u64::from(lane_idx);
                let born = (1u64 << 32) + rng.below(1 << 40);
                lane.encode(global, rank, born);

                let key = DemuxKey::for_session(global);
                let spec = PktSpec {
                    src_ip: key.src_ip,
                    dst_ip: key.dst_ip,
                    src_port: key.src_port,
                    dst_port: key.dst_port,
                    seq: born as u32,
                    ack: (born >> 32) as u32,
                    ident: global as u16,
                    ..PktSpec::default()
                };
                let mut payload = [0u8; PAYLOAD_LEN];
                payload[..4].copy_from_slice(&rank.to_le_bytes());
                payload[4..12].copy_from_slice(&born.to_le_bytes());
                payload[12..].copy_from_slice(&lane_idx.to_le_bytes());
                let want = reference::encode_frame(&spec, &payload);
                let h = lane.cur.expect("a frame is in flight");
                let sent = &lane.pool.bytes(h).unwrap()[..lane.cur_len];
                assert_eq!(
                    sent,
                    &want[..],
                    "message {i} (live {live}) after a {fate:?} frame"
                );

                // Mostly intact traffic, every fate often, repeats too.
                if rng.below(3) != 0 {
                    fate = fates[rng.below(8) as usize];
                }
                seen[fates.iter().position(|&f| f == fate).unwrap()] += 1;
                if live && fate == Fate::Corrupted {
                    let frame = lane.frame_mut().unwrap();
                    let at = rng.below(frame.len() as u64) as usize;
                    frame[at] ^= 1 << rng.below(8);
                }
                let intact = matches!(fate, Fate::Delivered | Fate::Reordered | Fate::Duplicated);
                assert_eq!(lane.resolve(fate), intact.then_some(rank), "message {i}");
            }
            assert!(seen.iter().all(|&n| n > 100), "fate coverage {seen:?}");
            let stats = lane.finish();
            assert_eq!(
                (stats.encoded, stats.pool.allocs, stats.pool.grows),
                (4_000, 4_000, 0)
            );
        }
    }

    #[test]
    fn pool_recycles_without_growing() {
        let mut lane = WireLane::new(WirePath::ZeroCopy, 0, 1);
        for i in 0..1000u64 {
            lane.encode(i % 5, (i % 5) as u32, i);
            lane.resolve(Fate::Delivered);
        }
        let pool = lane.finish().pool;
        assert_eq!(pool.allocs, 1000);
        assert_eq!(pool.frees, 1000);
        assert_eq!(pool.grows, 0, "steady state must never allocate");
        assert_eq!(pool.recycled, 999);
        assert_eq!(pool.high_water, 1);
    }
}
