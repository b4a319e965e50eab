//! Wire formats of the RPC suite: BLAST, BID and CHAN headers.
//!
//! Stack order on the wire (outermost first):
//! `eth | BLAST | BID | CHAN | payload` — BLAST fragments the whole
//! BID+CHAN+payload message; each fragment carries its own BLAST header.

/// BLAST fragmentation header (12 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlastHdr {
    pub version: u16,
    pub msg_id: u16,
    pub frag_index: u16,
    pub frag_count: u16,
    pub total_len: u32,
}

impl BlastHdr {
    pub const LEN: usize = 12;
    pub const VERSION: u16 = 1;
    /// A negative acknowledgement: `total_len` carries a bitmask of
    /// missing fragments, bit `i` naming fragment `frag_index + i`;
    /// `frag_count` is the expected count.
    pub const NACK_VERSION: u16 = 2;

    pub fn is_nack(&self) -> bool {
        self.version == Self::NACK_VERSION
    }

    /// Build a NACK for `msg_id` listing missing fragments: bit `i` of
    /// `missing_mask` names fragment `base + i`.
    pub fn nack(msg_id: u16, frag_count: u16, base: u16, missing_mask: u32) -> Self {
        BlastHdr {
            version: Self::NACK_VERSION,
            msg_id,
            frag_index: base,
            frag_count,
            total_len: missing_mask,
        }
    }

    pub fn to_bytes(&self) -> [u8; Self::LEN] {
        let mut b = [0u8; Self::LEN];
        b[0..2].copy_from_slice(&self.version.to_be_bytes());
        b[2..4].copy_from_slice(&self.msg_id.to_be_bytes());
        b[4..6].copy_from_slice(&self.frag_index.to_be_bytes());
        b[6..8].copy_from_slice(&self.frag_count.to_be_bytes());
        b[8..12].copy_from_slice(&self.total_len.to_be_bytes());
        b
    }

    pub fn from_bytes(b: &[u8]) -> Option<BlastHdr> {
        if b.len() < Self::LEN {
            return None;
        }
        let h = BlastHdr {
            version: u16::from_be_bytes([b[0], b[1]]),
            msg_id: u16::from_be_bytes([b[2], b[3]]),
            frag_index: u16::from_be_bytes([b[4], b[5]]),
            frag_count: u16::from_be_bytes([b[6], b[7]]),
            total_len: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
        };
        match h.version {
            Self::VERSION => (h.frag_index < h.frag_count).then_some(h),
            Self::NACK_VERSION => Some(h),
            _ => None,
        }
    }
}

/// BID boot-id header (8 bytes): rejects messages from a peer that
/// rebooted since the binding was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BidHdr {
    pub boot_id: u64,
}

impl BidHdr {
    pub const LEN: usize = 8;

    pub fn to_bytes(&self) -> [u8; Self::LEN] {
        self.boot_id.to_be_bytes()
    }

    pub fn from_bytes(b: &[u8]) -> Option<BidHdr> {
        if b.len() < Self::LEN {
            return None;
        }
        Some(BidHdr { boot_id: u64::from_be_bytes(b[..8].try_into().unwrap()) })
    }
}

/// CHAN request/reply header (12 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChanHdr {
    pub chan: u32,
    pub seq: u32,
    /// 0 = request, 1 = reply.
    pub dir: u32,
}

impl ChanHdr {
    pub const LEN: usize = 12;
    pub const REQUEST: u32 = 0;
    pub const REPLY: u32 = 1;

    pub fn to_bytes(&self) -> [u8; Self::LEN] {
        let mut b = [0u8; Self::LEN];
        b[0..4].copy_from_slice(&self.chan.to_be_bytes());
        b[4..8].copy_from_slice(&self.seq.to_be_bytes());
        b[8..12].copy_from_slice(&self.dir.to_be_bytes());
        b
    }

    pub fn from_bytes(b: &[u8]) -> Option<ChanHdr> {
        if b.len() < Self::LEN {
            return None;
        }
        Some(ChanHdr {
            chan: u32::from_be_bytes(b[0..4].try_into().unwrap()),
            seq: u32::from_be_bytes(b[4..8].try_into().unwrap()),
            dir: u32::from_be_bytes(b[8..12].try_into().unwrap()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blast_roundtrip() {
        let h = BlastHdr {
            version: BlastHdr::VERSION,
            msg_id: 7,
            frag_index: 2,
            frag_count: 5,
            total_len: 4096,
        };
        assert_eq!(BlastHdr::from_bytes(&h.to_bytes()), Some(h));
    }

    #[test]
    fn blast_rejects_bad_version_and_index() {
        let mut h = BlastHdr {
            version: 9,
            msg_id: 0,
            frag_index: 0,
            frag_count: 1,
            total_len: 0,
        };
        assert_eq!(BlastHdr::from_bytes(&h.to_bytes()), None);
        h.version = BlastHdr::VERSION;
        h.frag_index = 1; // >= count
        assert_eq!(BlastHdr::from_bytes(&h.to_bytes()), None);
    }

    #[test]
    fn nack_roundtrips_and_carries_mask() {
        let n = BlastHdr::nack(9, 5, 0, 0b10110);
        let parsed = BlastHdr::from_bytes(&n.to_bytes()).unwrap();
        assert!(parsed.is_nack());
        assert_eq!(parsed.msg_id, 9);
        assert_eq!(parsed.frag_count, 5);
        assert_eq!(parsed.frag_index, 0);
        assert_eq!(parsed.total_len, 0b10110);
    }

    #[test]
    fn bid_roundtrip() {
        let h = BidHdr { boot_id: 0xDEAD_BEEF_0123_4567 };
        assert_eq!(BidHdr::from_bytes(&h.to_bytes()), Some(h));
        assert_eq!(BidHdr::from_bytes(&[0u8; 4]), None);
    }

    #[test]
    fn chan_roundtrip() {
        let h = ChanHdr { chan: 3, seq: 42, dir: ChanHdr::REPLY };
        assert_eq!(ChanHdr::from_bytes(&h.to_bytes()), Some(h));
    }
}
