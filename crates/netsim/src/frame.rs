//! Ethernet II framing.
//!
//! Real wire format: destination and source MAC, EtherType, payload
//! padded to the 46-byte minimum, and a frame check sequence.  The FCS
//! here is a simple 32-bit sum (we need corruption *detection* for the
//! fault-injection tests, not IEEE CRC32 compatibility).

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    pub fn new(b: [u8; 6]) -> Self {
        MacAddr(b)
    }

    pub fn bytes(&self) -> &[u8; 6] {
        &self.0
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// EtherType values used by the stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    Ipv4,
    /// The x-kernel RPC suite rides directly on Ethernet in our model.
    Xrpc,
    Other(u16),
}

impl EtherType {
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Xrpc => 0x3007,
            EtherType::Other(v) => v,
        }
    }

    pub fn from_u16(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x3007 => EtherType::Xrpc,
            other => EtherType::Other(other),
        }
    }
}

/// Minimum frame size on the wire (header + payload + FCS).
pub const MIN_FRAME: usize = 64;
/// Maximum payload (MTU).
pub const MTU: usize = 1500;
/// Header: 6 + 6 + 2.
pub const HEADER: usize = 14;
/// FCS trailer.
pub const FCS: usize = 4;
/// Preamble + SFD transmitted before the frame.
pub const PREAMBLE: usize = 8;

/// An Ethernet frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub dst: MacAddr,
    pub src: MacAddr,
    pub ethertype: EtherType,
    pub payload: Vec<u8>,
}

impl Frame {
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Vec<u8>) -> Self {
        assert!(payload.len() <= MTU, "payload exceeds MTU");
        Frame { dst, src, ethertype, payload }
    }

    /// Bytes occupying the wire (header + padded payload + FCS), i.e.
    /// at least [`MIN_FRAME`].
    pub fn wire_len(&self) -> usize {
        (HEADER + self.payload.len() + FCS).max(MIN_FRAME)
    }

    /// The frame check sequence over `bytes` (header + padded payload).
    /// Public so the zero-copy wire codec (`protocols::wire`) computes
    /// the identical trailer without materializing a [`Frame`].
    ///
    /// The defining fold is `acc ← rotl5(acc) ^ byte` from
    /// `0xFFFF_FFFF` ([`Self::fcs_of_serial`]).  Rotate and xor are
    /// linear over GF(2), so the result is the all-ones start (which
    /// any rotation leaves alone) xor every byte's own contribution:
    ///
    /// ```text
    /// fcs = 0xFFFF_FFFF ^ ⊕ₚ rotl(bₚ, 5·(n−1−p) mod 32)
    /// ```
    ///
    /// No byte depends on the accumulator, so the fold needs no serial
    /// chain at all: [`FcsAcc`] xors the body's 8-byte words together
    /// by grid class and rotates once per lane at the end.
    /// Bit-identical to the serial fold for every input (pinned by
    /// `fcs_block_fold_matches_serial`).
    #[inline]
    pub fn fcs_of(bytes: &[u8]) -> u32 {
        !FcsAcc::of(bytes).fold()
    }

    /// The seed byte-serial FCS fold — the definition [`Self::fcs_of`]
    /// must match bit-for-bit.
    pub fn fcs_of_serial(bytes: &[u8]) -> u32 {
        bytes
            .iter()
            .fold(0xFFFF_FFFFu32, |acc, b| acc.rotate_left(5) ^ (*b as u32))
    }

    /// Serialize to wire bytes (with padding and FCS).
    pub fn to_bytes(&self) -> Vec<u8> {
        let padded = self.payload.len().max(MIN_FRAME - HEADER - FCS);
        let mut out = Vec::with_capacity(HEADER + padded + FCS);
        out.extend_from_slice(self.dst.bytes());
        out.extend_from_slice(self.src.bytes());
        out.extend_from_slice(&self.ethertype.to_u16().to_be_bytes());
        out.extend_from_slice(&self.payload);
        out.resize(HEADER + padded, 0);
        let fcs = Self::fcs_of(&out);
        out.extend_from_slice(&fcs.to_be_bytes());
        out
    }

    /// Parse wire bytes; verifies the FCS.  The original payload length
    /// is unrecoverable after padding (like real Ethernet) — upper
    /// layers carry their own lengths.
    pub fn from_bytes(bytes: &[u8]) -> Result<Frame, FrameError> {
        if bytes.len() < MIN_FRAME {
            return Err(FrameError::Runt(bytes.len()));
        }
        let body = &bytes[..bytes.len() - FCS];
        let fcs = u32::from_be_bytes(bytes[bytes.len() - FCS..].try_into().unwrap());
        if Self::fcs_of(body) != fcs {
            return Err(FrameError::BadFcs);
        }
        let dst = MacAddr(body[0..6].try_into().unwrap());
        let src = MacAddr(body[6..12].try_into().unwrap());
        let ethertype = EtherType::from_u16(u16::from_be_bytes([body[12], body[13]]));
        Ok(Frame { dst, src, ethertype, payload: body[HEADER..].to_vec() })
    }
}

/// An XOR-linear accumulator of FCS contributions over a `len`-byte
/// body, laid out on the grid of 8-byte words that ends at the body's
/// end: word `m` covers bytes `len − 8m − 8 .. len − 8m`, loaded
/// little-endian (lane `L` = byte `len − 8m − 8 + L`; the first word
/// of a body whose length is not a multiple of 8 is zero in the lanes
/// before byte 0).
///
/// Byte `p` contributes `rotl(bₚ, 5·(len−1−p))`; for lane `L` of word
/// `m` that rotation is `8m + 3 − 5L` (mod 32).  Words four apart
/// therefore rotate alike, so words are xored into four class
/// accumulators and [`Self::fold`] transposes the classes into one
/// 32-bit word per lane (class `k` in byte `k`, whose extra `8k`
/// rotation the byte position supplies) and rotates each lane once.
///
/// The same accumulator serves a whole body ([`Frame::fcs_of`]) and a
/// set of byte changes ([`Self::xor_at`]): fed the xor of old and new
/// bytes, [`Self::fold`] is the change of the FCS, an O(changed bytes)
/// update instead of an O(`len`) refold.
#[derive(Debug, Clone, Copy)]
pub struct FcsAcc {
    len: usize,
    class: [u64; 4],
}

impl FcsAcc {
    /// An empty accumulator for a `len`-byte body.
    #[inline]
    pub fn new(len: usize) -> Self {
        FcsAcc { len, class: [0; 4] }
    }

    /// The accumulator of every byte of `bytes`.
    #[inline]
    pub fn of(bytes: &[u8]) -> Self {
        Self::of_with(bytes, |_| {})
    }

    /// [`Self::of`], also handing each grid word to `visit` as it is
    /// read — so a caller can fold other sums into the same pass.  The
    /// first word of a body whose length is not a multiple of 8 comes
    /// zero in its lanes before byte 0, like every grid word.
    #[inline]
    pub fn of_with(bytes: &[u8], mut visit: impl FnMut(u64)) -> Self {
        let mut acc = FcsAcc::new(bytes.len());
        let mut chunks = bytes.rchunks_exact(32);
        let mut m = 0;
        for c in &mut chunks {
            let word = |i: usize| u64::from_le_bytes(c[i..i + 8].try_into().unwrap());
            let w = [word(24), word(16), word(8), word(0)];
            for (class, w) in acc.class.iter_mut().zip(w) {
                *class ^= w;
                visit(w);
            }
            m += 4;
        }
        let rest = chunks.remainder();
        let mut words = rest.rchunks_exact(8);
        for c in &mut words {
            let w = u64::from_le_bytes(c.try_into().unwrap());
            acc.add_word(m, w);
            visit(w);
            m += 1;
        }
        let head = words.remainder();
        if !head.is_empty() {
            // The first bytes fill the top lanes of one more word.
            let w = match bytes.get(..8) {
                Some(first) => {
                    u64::from_le_bytes(first.try_into().unwrap()) << (64 - 8 * head.len())
                }
                None => head.iter().fold(0, |w, &b| w >> 8 | u64::from(b) << 56),
            };
            acc.add_word(m, w);
            visit(w);
        }
        acc
    }

    /// Xor in grid word `m` (counted from the body's end).
    #[inline(always)]
    fn add_word(&mut self, m: usize, w: u64) {
        self.class[m & 3] ^= w;
    }

    /// Xor in the eight bytes at `at..at + 8`, little-endian (byte `at`
    /// is `w`'s low byte).  Bytes of `w` past the body's end must be 0.
    #[inline(always)]
    pub fn xor_at(&mut self, at: usize, w: u64) {
        debug_assert!(at < self.len, "byte {at} beyond a {}-byte body", self.len);
        let m = (self.len - 1 - at) / 8;
        let lane = at + 8 * m + 8 - self.len;
        self.add_word(m, w << (8 * lane));
        if lane != 0 && m != 0 {
            self.add_word(m - 1, w >> (64 - 8 * lane));
        } else {
            debug_assert!(
                lane == 0 || w >> (64 - 8 * lane) == 0,
                "delta runs past the body"
            );
        }
    }

    /// The xor of every accumulated byte's rotated contribution.
    #[inline]
    pub fn fold(&self) -> u32 {
        const B: u64 = 0x00FF_00FF_00FF_00FF;
        const H: u64 = 0x0000_FFFF_0000_FFFF;
        let [c0, c1, c2, c3] = self.class;
        // Interleave bytes: 16-bit unit i of `e01` is lane 2i of
        // classes 0 and 1, of `o01` lane 2i + 1 (likewise for 2 and 3).
        let e01 = (c0 & B) | ((c1 & B) << 8);
        let o01 = ((c0 >> 8) & B) | (c1 & !B);
        let e23 = (c2 & B) | ((c3 & B) << 8);
        let o23 = ((c2 >> 8) & B) | (c3 & !B);
        // Interleave units: 32-bit halves hold lanes (0, 4), (2, 6),
        // (1, 5) and (3, 7), class k in byte k.
        let l04 = (e01 & H) | ((e23 & H) << 16);
        let l26 = ((e01 >> 16) & H) | (e23 & !H);
        let l15 = (o01 & H) | ((o23 & H) << 16);
        let l37 = ((o01 >> 16) & H) | (o23 & !H);
        let lane = |w: u64, hi: bool| if hi { (w >> 32) as u32 } else { w as u32 };
        // Lane L rotates by 3 − 5L (mod 32).
        lane(l04, false).rotate_left(3)
            ^ lane(l15, false).rotate_left(30)
            ^ lane(l26, false).rotate_left(25)
            ^ lane(l37, false).rotate_left(20)
            ^ lane(l04, true).rotate_left(15)
            ^ lane(l15, true).rotate_left(10)
            ^ lane(l26, true).rotate_left(5)
            ^ lane(l37, true)
    }
}

/// Frame parse errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the Ethernet minimum.
    Runt(usize),
    /// Frame check sequence mismatch (corruption).
    BadFcs,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Runt(n) => write!(f, "runt frame of {n} bytes"),
            FrameError::BadFcs => write!(f, "bad frame check sequence"),
        }
    }
}

impl std::error::Error for FrameError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Frame {
        Frame::new(
            MacAddr([2, 0, 0, 0, 0, 1]),
            MacAddr([2, 0, 0, 0, 0, 2]),
            EtherType::Ipv4,
            payload.to_vec(),
        )
    }

    #[test]
    fn min_frame_is_64_bytes() {
        let f = frame(b"x");
        assert_eq!(f.wire_len(), 64);
        assert_eq!(f.to_bytes().len(), 64);
    }

    #[test]
    fn large_frame_keeps_length() {
        let f = frame(&[0u8; 1000]);
        assert_eq!(f.wire_len(), 14 + 1000 + 4);
    }

    #[test]
    fn roundtrip_preserves_payload_prefix() {
        let f = frame(b"hello world");
        let parsed = Frame::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(parsed.dst, f.dst);
        assert_eq!(parsed.src, f.src);
        assert_eq!(parsed.ethertype, f.ethertype);
        assert!(parsed.payload.starts_with(b"hello world"));
        assert_eq!(parsed.payload.len(), 46, "padded to minimum");
    }

    #[test]
    fn corruption_detected_by_fcs() {
        let mut bytes = frame(b"payload").to_bytes();
        bytes[20] ^= 0x40;
        assert_eq!(Frame::from_bytes(&bytes), Err(FrameError::BadFcs));
    }

    #[test]
    fn runt_rejected() {
        assert!(matches!(
            Frame::from_bytes(&[0u8; 10]),
            Err(FrameError::Runt(10))
        ));
    }

    #[test]
    #[should_panic(expected = "exceeds MTU")]
    fn oversize_payload_panics() {
        frame(&[0u8; 1501]);
    }

    #[test]
    fn ethertype_roundtrip() {
        for et in [EtherType::Ipv4, EtherType::Xrpc, EtherType::Other(0x86dd)] {
            assert_eq!(EtherType::from_u16(et.to_u16()), et);
        }
    }

    #[test]
    fn fcs_block_fold_matches_serial() {
        // Every length 0..600 covers all eight remainder cases many
        // times over; contents come from a seeded LCG so the fold sees
        // arbitrary bit patterns, not just zeros.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut buf = Vec::with_capacity(600);
        for len in 0..600 {
            buf.clear();
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                buf.push((state >> 56) as u8);
            }
            assert_eq!(
                Frame::fcs_of(&buf),
                Frame::fcs_of_serial(&buf),
                "block fold diverged from the serial definition at len {len}"
            );
        }
    }

    /// The FCS of a `len`-byte body whose bytes at `at..at + delta.len()`
    /// changed by the xor `delta` (old ^ new), given its FCS before the
    /// change — patched the way an in-place re-encode patches it.
    fn fcs_patch(fcs: u32, len: usize, at: usize, delta: &[u8]) -> u32 {
        let mut acc = FcsAcc::new(len);
        for (i, c) in delta.chunks(8).enumerate() {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            acc.xor_at(at + 8 * i, u64::from_le_bytes(w));
        }
        fcs ^ acc.fold()
    }

    #[test]
    fn fcs_patch_matches_serial_refold() {
        // Body lengths 0..=200 and a full 1514-byte frame; at every
        // offset a patch of every width 1..=8 that fits, with seeded
        // random xor deltas, chained so each patch starts from the
        // previous patched FCS.
        let mut rng = crate::rng::SplitMix64::new(0xFC5_0A7C);
        for len in (0..=200).chain([1514]) {
            let mut body: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut fcs = Frame::fcs_of_serial(&body);
            for at in 0..len {
                for width in 1..=8usize.min(len - at) {
                    let delta: Vec<u8> = (0..width).map(|_| rng.next_u64() as u8).collect();
                    for (b, d) in body[at..at + width].iter_mut().zip(&delta) {
                        *b ^= d;
                    }
                    fcs = fcs_patch(fcs, len, at, &delta);
                    assert_eq!(
                        fcs,
                        Frame::fcs_of_serial(&body),
                        "patch of {width} bytes at {at} of a {len}-byte body"
                    );
                }
            }
        }
    }

    #[test]
    fn mac_display() {
        assert_eq!(
            MacAddr([2, 0, 0, 0, 0, 0x1a]).to_string(),
            "02:00:00:00:00:1a"
        );
    }
}
