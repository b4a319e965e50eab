//! The Internet checksum (RFC 1071), used by IP (header) and TCP
//! (pseudo-header + segment).  This is the real algorithm — corrupted
//! packets are really rejected.
//!
//! The default summation is word-at-a-time: eight bytes per iteration
//! folded into a one's-complement accumulator with end-around carry
//! (RFC 1071 §2(A): the sum can be computed in any word size and
//! byte-swapped freely because addition mod 2^16 - 1 commutes with the
//! 2^16 ≡ 1 congruence).  The original byte-pair loop is kept as
//! [`reference`](mod@reference) and the two are proven equal on seeded random buffers
//! of every alignment.

/// One's-complement sum, eight bytes at a time.  The returned
/// accumulator is congruent to the byte-pair sum mod 65535 and is zero
/// only when every summed byte is zero, so [`fold`] maps both paths to
/// the same checksum.
#[inline]
pub(crate) fn sum_words(data: &[u8], acc: u32) -> u32 {
    let mut sum = acc as u64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_be_bytes(c.try_into().unwrap());
        // End-around carry: addition mod 2^64 - 1, and 2^64 ≡ 1
        // (mod 65535), so each u64 contributes its four 16-bit words.
        let (s, carry) = sum.overflowing_add(w);
        sum = s + carry as u64;
    }
    // Fold 64 → 16 bits (each round can carry once into the next), so
    // the tail accumulation below cannot overflow u32.
    sum = (sum >> 32) + (sum & 0xffff_ffff);
    sum = (sum >> 32) + (sum & 0xffff_ffff);
    sum = (sum >> 16) + (sum & 0xffff);
    sum = (sum >> 16) + (sum & 0xffff);
    // The ≤ 7 tail bytes go through the byte-pair loop; the pairing is
    // unchanged because the fast loop consumed a multiple of two bytes.
    reference::sum_words(chunks.remainder(), sum as u32)
}

/// The checksum of a word sum: end-around fold to 16 bits, complement.
/// Two folds take any `u32` to 16 bits (the first leaves at most
/// 0x1_FFFE, the second at most 0xFFFF).
#[inline]
pub(crate) fn fold(acc: u32) -> u16 {
    let acc = (acc & 0xffff) + (acc >> 16);
    let acc = (acc & 0xffff) + (acc >> 16);
    !(acc as u16)
}

/// Checksum over a byte slice.
pub fn in_cksum(data: &[u8]) -> u16 {
    fold(sum_words(data, 0))
}

/// Checksum with a pseudo-header prefix sum (for TCP/UDP).
pub fn in_cksum_pseudo(src: u32, dst: u32, proto: u8, data: &[u8]) -> u16 {
    fold(sum_words(data, pseudo_acc(src, dst, proto, data.len())))
}

/// Word sum of the TCP/UDP pseudo-header.
pub(crate) fn pseudo_acc(src: u32, dst: u32, proto: u8, len: usize) -> u32 {
    let mut acc = 0u32;
    acc += src >> 16;
    acc += src & 0xffff;
    acc += dst >> 16;
    acc += dst & 0xffff;
    acc += proto as u32;
    acc += len as u32;
    acc
}

/// Verify: a correct packet checksums to zero when the stored checksum
/// is included in the summed range.
pub fn verify(data: &[u8]) -> bool {
    in_cksum(data) == 0
}

/// Verify with pseudo-header.
pub fn verify_pseudo(src: u32, dst: u32, proto: u8, data: &[u8]) -> bool {
    in_cksum_pseudo(src, dst, proto, data) == 0
}

/// Incremental checksum update (RFC 1624 equation 3): the stored
/// checksum `hc` after the 16-bit word `old` is overwritten with
/// `new`, without re-summing the packet — `HC' = ~(~HC + ~m + m')` in
/// one's-complement arithmetic.
///
/// Equation 3 (not RFC 1141's buggy equation 4) keeps the -0/+0
/// representatives straight; for any header containing at least one
/// non-zero word (every real IPv4/TCP header — the version byte alone
/// guarantees it) the result is bit-identical to a full recompute, not
/// merely verification-equivalent.  The codec's in-place re-encode
/// leans on this: patching one field costs two one's-complement adds
/// instead of an O(len) re-sum through [`in_cksum`]'s u64-folded loop.
pub fn incr_update(hc: u16, old: u16, new: u16) -> u16 {
    let mut sum = u32::from(!hc) + u32::from(!old) + u32::from(new);
    sum = (sum & 0xffff) + (sum >> 16);
    sum = (sum & 0xffff) + (sum >> 16);
    !(sum as u16)
}

/// The seed implementation: one 16-bit big-endian word per iteration.
/// Kept as the correctness oracle for the word-at-a-time fast path.
pub mod reference {
    /// One's-complement sum of 16-bit big-endian words.
    pub(super) fn sum_words(data: &[u8], mut acc: u32) -> u32 {
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            acc += u16::from_be_bytes([c[0], c[1]]) as u32;
        }
        if let [last] = chunks.remainder() {
            acc += u16::from_be_bytes([*last, 0]) as u32;
        }
        acc
    }

    /// Byte-pair checksum over a byte slice.
    pub fn in_cksum(data: &[u8]) -> u16 {
        super::fold(sum_words(data, 0))
    }

    /// Byte-pair checksum with a pseudo-header prefix sum.
    pub fn in_cksum_pseudo(src: u32, dst: u32, proto: u8, data: &[u8]) -> u16 {
        super::fold(sum_words(data, super::pseudo_acc(src, dst, proto, data.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::SplitMix64;

    #[test]
    fn rfc1071_example() {
        // Classic example: 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(in_cksum(&data), 0x220d);
        assert_eq!(reference::in_cksum(&data), 0x220d);
    }

    #[test]
    fn verify_accepts_correct_packet() {
        let mut pkt = vec![0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x06];
        pkt.extend_from_slice(&[0, 0]); // checksum slot
        pkt.extend_from_slice(&[10, 0, 0, 1, 10, 0, 0, 2]);
        let ck = in_cksum(&pkt);
        pkt[10] = (ck >> 8) as u8;
        pkt[11] = (ck & 0xff) as u8;
        assert!(verify(&pkt));
    }

    #[test]
    fn verify_rejects_flipped_bit() {
        let mut pkt = vec![1u8, 2, 3, 4, 5, 6];
        let ck = in_cksum(&pkt);
        pkt.push((ck >> 8) as u8);
        pkt.push((ck & 0xff) as u8);
        assert!(verify(&pkt));
        pkt[3] ^= 0x10;
        assert!(!verify(&pkt));
    }

    #[test]
    fn odd_length_handled() {
        let data = [0xab];
        assert_eq!(in_cksum(&data), !0xab00);
    }

    #[test]
    fn pseudo_header_binds_addresses() {
        let data = b"segment";
        let a = in_cksum_pseudo(0x0a000001, 0x0a000002, 6, data);
        let b = in_cksum_pseudo(0x0a000001, 0x0a000003, 6, data);
        assert_ne!(a, b, "different dst must change the checksum");
    }

    #[test]
    fn pseudo_verify_roundtrip() {
        let src = 0x0a000001;
        let dst = 0x0a000002;
        // Build a fake segment with a checksum field at offset 16.
        let mut seg = vec![0u8; 24];
        seg[0] = 0x13;
        seg[23] = 0x77;
        let ck = in_cksum_pseudo(src, dst, 6, &seg);
        seg[16] = (ck >> 8) as u8;
        seg[17] = (ck & 0xff) as u8;
        assert!(verify_pseudo(src, dst, 6, &seg));
    }

    #[test]
    fn fast_path_matches_reference_on_seeded_buffers() {
        // Every length 0..=67 (covers the 8-byte chunking, the 2..=7
        // byte tails, and the odd trailing byte) at random contents,
        // plus longer frame-sized buffers.
        let mut rng = SplitMix64::new(0xC4EC_5D00);
        for case in 0..200u32 {
            let len = if case < 68 { case as usize } else { 68 + rng.below(1500) as usize };
            let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(
                in_cksum(&buf),
                reference::in_cksum(&buf),
                "len {len} diverged (case {case})"
            );
            let src = rng.next_u64() as u32;
            let dst = rng.next_u64() as u32;
            let proto = rng.next_u64() as u8;
            assert_eq!(
                in_cksum_pseudo(src, dst, proto, &buf),
                reference::in_cksum_pseudo(src, dst, proto, &buf),
                "pseudo len {len} diverged (case {case})"
            );
        }
    }

    #[test]
    fn incremental_update_matches_full_recompute() {
        // Mutate one 16-bit word of a checksummed buffer and compare
        // RFC 1624's incremental result against a full re-sum, over
        // seeded random contents, positions and replacement values.
        let mut rng = SplitMix64::new(0x1624_1624);
        for case in 0..500u32 {
            let len = 20 + 2 * (rng.below(30) as usize);
            let mut buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            buf[0] = 0x45; // a non-zero word, as in any real header
            let ck = in_cksum(&buf);
            let at = 2 * (1 + rng.below((len as u64 / 2) - 1) as usize);
            let old = u16::from_be_bytes([buf[at], buf[at + 1]]);
            let new = rng.next_u64() as u16;
            buf[at..at + 2].copy_from_slice(&new.to_be_bytes());
            assert_eq!(
                incr_update(ck, old, new),
                in_cksum(&buf),
                "case {case}: len {len} at {at} {old:04x}->{new:04x}"
            );
        }
    }

    #[test]
    fn incremental_noop_update_is_identity() {
        let buf = [0x45u8, 0, 0, 40, 0x12, 0x34, 0, 0, 64, 6, 0, 0];
        let ck = in_cksum(&buf);
        assert_eq!(incr_update(ck, 0x1234, 0x1234), ck);
    }

    #[test]
    fn fast_path_matches_reference_on_extremal_contents() {
        // All-0xff buffers maximise end-around carries; all-zero
        // buffers exercise the zero accumulator representative (checksum
        // 0xffff, not 0) on both paths.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 64, 1500] {
            let ones = vec![0xffu8; len];
            let zeros = vec![0u8; len];
            assert_eq!(in_cksum(&ones), reference::in_cksum(&ones), "0xff len {len}");
            assert_eq!(in_cksum(&zeros), reference::in_cksum(&zeros), "0x00 len {len}");
            assert_eq!(in_cksum(&zeros), 0xffff);
        }
    }
}
