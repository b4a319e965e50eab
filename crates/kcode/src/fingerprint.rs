//! Streaming 64-bit trace fingerprints.
//!
//! The online re-layout loop (`traffic::adapt`) keys its memoized
//! scoring decisions by *what the workload looks like*, not by object
//! identity: two profile windows that sampled the same episode shape
//! and locality mix must map to the same key so the shared re-layout
//! scorer answers them with its memoized verdict instead of re-scoring
//! the candidate pool.
//!
//! The hash is FNV-1a over a canonical word encoding of each event
//! (variant tag, then ids), finished with a SplitMix64-style
//! avalanche so low-entropy streams still spread across the key space.
//! It is a fingerprint, not a cryptographic hash: collisions only cost
//! a suboptimal (never incorrect) verdict reuse.

use crate::events::Ev;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental fingerprint builder: feed words or whole events as they
/// are observed, read the digest at any point.
#[derive(Debug, Clone)]
pub struct TraceFingerprint {
    h: u64,
}

impl Default for TraceFingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceFingerprint {
    pub fn new() -> Self {
        TraceFingerprint { h: FNV_OFFSET }
    }

    /// Mix one 64-bit word (byte-at-a-time FNV-1a).
    #[inline]
    pub fn push(&mut self, word: u64) {
        let mut h = self.h;
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.h = h;
    }

    /// Mix one recorded event.
    pub fn push_event(&mut self, ev: Ev) {
        match ev {
            Ev::CallSite { seg } => {
                self.push(1);
                self.push(seg.0 as u64);
            }
            Ev::Enter { func } => {
                self.push(2);
                self.push(func.0 as u64);
            }
            Ev::Straight { seg } => {
                self.push(3);
                self.push(seg.0 as u64);
            }
            Ev::Cond { seg, taken } => {
                self.push(4);
                self.push((seg.0 as u64) << 1 | taken as u64);
            }
            Ev::Loop { seg, iters } => {
                self.push(5);
                self.push((seg.0 as u64) << 32 | iters as u64);
            }
            Ev::Leave => self.push(6),
        }
    }

    /// Final digest (avalanched; the builder remains usable).
    pub fn finish(&self) -> u64 {
        let mut z = self.h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Fingerprint a whole recorded flow.
pub fn fingerprint_stream(flow: &[Ev]) -> u64 {
    let mut fp = TraceFingerprint::new();
    for &ev in flow {
        fp.push_event(ev);
    }
    fp.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FuncId, SegId};

    #[test]
    fn identical_streams_agree() {
        let a = vec![
            Ev::Enter { func: FuncId(3) },
            Ev::Straight { seg: SegId(7) },
            Ev::Leave,
        ];
        assert_eq!(fingerprint_stream(&a), fingerprint_stream(&a.clone()));
    }

    #[test]
    fn every_field_matters() {
        let base = vec![
            Ev::Enter { func: FuncId(1) },
            Ev::Cond { seg: SegId(2), taken: true },
            Ev::Loop { seg: SegId(3), iters: 4 },
            Ev::Leave,
        ];
        let variants = [
            vec![
                Ev::Enter { func: FuncId(2) },
                Ev::Cond { seg: SegId(2), taken: true },
                Ev::Loop { seg: SegId(3), iters: 4 },
                Ev::Leave,
            ],
            vec![
                Ev::Enter { func: FuncId(1) },
                Ev::Cond { seg: SegId(2), taken: false },
                Ev::Loop { seg: SegId(3), iters: 4 },
                Ev::Leave,
            ],
            vec![
                Ev::Enter { func: FuncId(1) },
                Ev::Cond { seg: SegId(2), taken: true },
                Ev::Loop { seg: SegId(3), iters: 5 },
                Ev::Leave,
            ],
        ];
        let h0 = fingerprint_stream(&base);
        for v in &variants {
            assert_ne!(h0, fingerprint_stream(v));
        }
    }

    #[test]
    fn incremental_matches_batch() {
        let s = vec![
            Ev::CallSite { seg: SegId(9) },
            Ev::Enter { func: FuncId(0) },
            Ev::Leave,
        ];
        let mut fp = TraceFingerprint::new();
        for &ev in &s {
            fp.push_event(ev);
        }
        assert_eq!(fp.finish(), fingerprint_stream(&s));
    }

    #[test]
    fn order_matters() {
        let a = vec![Ev::Straight { seg: SegId(1) }, Ev::Straight { seg: SegId(2) }];
        let b = vec![Ev::Straight { seg: SegId(2) }, Ev::Straight { seg: SegId(1) }];
        assert_ne!(fingerprint_stream(&a), fingerprint_stream(&b));
    }
}
