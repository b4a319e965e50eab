//! The LANCE (AMD Am7990) network controller.
//!
//! §2.2.4: "The LANCE chip has a 16-bit bus interface, while the
//! TURBOchannel to which it is connected is 32 bits wide.  This has the
//! unfortunate effect that shared memory is used sparsely — for
//! descriptors, every 16 bits of shared memory are followed by a 16-bit
//! gap.  For buffers, 16 bytes of shared memory are followed by a 16
//! byte gap."
//!
//! Descriptors are ten bytes (five 16-bit words).  Traditional drivers
//! update a descriptor by copying all five words into dense memory,
//! modifying, and writing all five back (20 bytes moved per update, even
//! for a one-bit change).  The USC-generated accessors read and write
//! exactly the words needed, in place.  Both disciplines are implemented
//! on [`SparseMem`]; the access counters expose the difference that
//! Table 1 prices at 171 instructions.
//!
//! Timing: the paper measured **105 µs** between handing a minimum frame
//! to the controller and the transmission-complete interrupt — 57.6 µs
//! of wire time plus ~47 µs of controller overhead.

use crate::frame::Frame;
use crate::Ns;

/// Word index within the shared region.
pub type WordIdx = usize;

/// Sparse shared memory as the CPU sees it: 16-bit words at 4-byte
/// strides (descriptor area) and 16-byte data runs at 32-byte strides
/// (buffer area).
#[derive(Debug, Clone)]
pub struct SparseMem {
    words: Vec<u16>,
    /// Simulated CPU base address of the region.
    pub sim_base: u64,
    /// CPU word reads performed (sparse accesses).
    pub word_reads: u64,
    /// CPU word writes performed.
    pub word_writes: u64,
}

impl SparseMem {
    pub fn new(nwords: usize, sim_base: u64) -> Self {
        SparseMem { words: vec![0; nwords], sim_base, word_reads: 0, word_writes: 0 }
    }

    /// CPU byte address of word `i` (16 data bits + 16-bit gap = 4-byte
    /// stride).
    pub fn word_addr(&self, i: WordIdx) -> u64 {
        self.sim_base + (i as u64) * 4
    }

    pub fn read_word(&mut self, i: WordIdx) -> u16 {
        self.word_reads += 1;
        self.words[i]
    }

    pub fn write_word(&mut self, i: WordIdx, v: u16) {
        self.word_writes += 1;
        self.words[i] = v;
    }

    /// Read without counting (the chip side; its accesses don't cost CPU
    /// cycles).
    pub fn chip_read(&self, i: WordIdx) -> u16 {
        self.words[i]
    }

    pub fn chip_write(&mut self, i: WordIdx, v: u16) {
        self.words[i] = v;
    }

    /// Copy a byte buffer into the sparse data area starting at word
    /// `start` (driver side: counted).  Data is packed two bytes per
    /// word; the 16-byte-run/16-byte-gap structure is captured by the
    /// address mapping in [`SparseMem::buf_byte_addr`].
    pub fn write_buf(&mut self, start: WordIdx, data: &[u8]) {
        for (k, chunk) in data.chunks(2).enumerate() {
            let w = if chunk.len() == 2 {
                u16::from_be_bytes([chunk[0], chunk[1]])
            } else {
                u16::from_be_bytes([chunk[0], 0])
            };
            self.write_word(start + k, w);
        }
    }

    /// Read `len` bytes from the sparse data area at word `start`.
    pub fn read_buf(&mut self, start: WordIdx, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for k in 0..len.div_ceil(2) {
            let w = self.read_word(start + k).to_be_bytes();
            out.push(w[0]);
            if out.len() < len {
                out.push(w[1]);
            }
        }
        out
    }

    /// CPU byte address of buffer byte `j` within a buffer starting at
    /// byte offset `buf_base`: 16 bytes of data, then a 16-byte gap.
    pub fn buf_byte_addr(&self, buf_base: u64, j: usize) -> u64 {
        let run = (j / 16) as u64;
        let off = (j % 16) as u64;
        self.sim_base + buf_base + run * 32 + off
    }

    pub fn reset_counters(&mut self) {
        self.word_reads = 0;
        self.word_writes = 0;
    }
}

/// A LANCE ring descriptor (10 bytes = 5 words).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Descriptor {
    /// Buffer address (word index in shared memory) — LADR + HADR.
    pub buf: u32,
    /// Flags: OWN, STP, ENP, ERR.
    pub flags: u16,
    /// Buffer byte count (two's complement in real hardware; plain here).
    pub bcnt: u16,
    /// Status bits.
    pub status: u16,
    /// Message byte count (valid on receive).
    pub mcnt: u16,
}

impl Descriptor {
    pub const OWN: u16 = 0x8000;
    pub const STP: u16 = 0x0200;
    pub const ENP: u16 = 0x0100;
    pub const ERR: u16 = 0x4000;

    /// Words occupied by one descriptor.
    pub const WORDS: usize = 5;

    pub fn owned_by_chip(&self) -> bool {
        self.flags & Self::OWN != 0
    }

    /// Pack into five words.
    pub fn to_words(&self) -> [u16; 5] {
        [
            (self.buf & 0xffff) as u16,
            ((self.buf >> 16) as u16 & 0x00ff) | self.flags,
            self.bcnt,
            self.status,
            self.mcnt,
        ]
    }

    /// Unpack from five words.
    pub fn from_words(w: [u16; 5]) -> Self {
        Descriptor {
            buf: (w[0] as u32) | (((w[1] & 0x00ff) as u32) << 16),
            flags: w[1] & 0xff00,
            bcnt: w[2],
            status: w[3],
            mcnt: w[4],
        }
    }

    // ---- Driver access disciplines ------------------------------------

    /// Traditional copy-based read: all five words copied to dense
    /// memory.
    pub fn read_copy(mem: &mut SparseMem, at: WordIdx) -> Descriptor {
        let mut w = [0u16; 5];
        for (k, slot) in w.iter_mut().enumerate() {
            *slot = mem.read_word(at + k);
        }
        Descriptor::from_words(w)
    }

    /// Traditional copy-based write-back: all five words written.
    pub fn write_copy(&self, mem: &mut SparseMem, at: WordIdx) {
        for (k, w) in self.to_words().into_iter().enumerate() {
            mem.write_word(at + k, w);
        }
    }

    /// USC-style direct access: read only the flags word.
    pub fn direct_read_flags(mem: &mut SparseMem, at: WordIdx) -> u16 {
        mem.read_word(at + 1) & 0xff00
    }

    /// USC-style direct update of the flags word, preserving the high
    /// address bits that share it.
    pub fn direct_write_flags(mem: &mut SparseMem, at: WordIdx, flags: u16) {
        let old = mem.read_word(at + 1);
        mem.write_word(at + 1, (old & 0x00ff) | (flags & 0xff00));
    }

    /// USC-style direct update of the byte count.
    pub fn direct_write_bcnt(mem: &mut SparseMem, at: WordIdx, bcnt: u16) {
        mem.write_word(at + 2, bcnt);
    }

    /// USC-style direct read of the receive message length.
    pub fn direct_read_mcnt(mem: &mut SparseMem, at: WordIdx) -> u16 {
        mem.read_word(at + 4)
    }

    /// USC-style direct read of the status word.
    pub fn direct_read_status(mem: &mut SparseMem, at: WordIdx) -> u16 {
        mem.read_word(at + 3)
    }
}

/// Controller latency constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LanceTiming {
    /// Controller-internal latency on transmit, excluding wire time.
    /// Wire (57.6 µs) + this = the measured 105 µs for a minimum frame.
    pub tx_overhead_ns: Ns,
    /// Receiver-side latency from last wire bit to the receive
    /// interrupt.
    pub rx_overhead_ns: Ns,
}

impl LanceTiming {
    /// The paper's measured values: 105 µs total tx-to-interrupt for a
    /// minimum frame, of which 57.6 µs is wire time → 47.4 µs of
    /// controller overhead, split between the sending chip's setup/DMA
    /// and the receive interrupt dispatch.
    pub fn dec3000_600() -> Self {
        LanceTiming { tx_overhead_ns: 47_400, rx_overhead_ns: 47_400 }
    }

    /// A modern low-latency controller (the paper's closing remark that
    /// "one should expect RTTs on the order of 50 µs" with better
    /// adaptors).
    pub fn fast_adaptor() -> Self {
        LanceTiming { tx_overhead_ns: 2_000, rx_overhead_ns: 2_000 }
    }
}

/// Ring geometry within shared memory.
#[derive(Debug, Clone, Copy)]
pub struct RingLayout {
    /// First word of the descriptor ring.
    pub desc_base: WordIdx,
    /// Number of descriptors.
    pub len: usize,
    /// First word of the buffer area; buffer `i` starts at
    /// `buf_base + i * buf_words`.
    pub buf_base: WordIdx,
    /// Words per buffer (MTU/2 rounded up).
    pub buf_words: usize,
}

impl RingLayout {
    pub fn desc_at(&self, i: usize) -> WordIdx {
        self.desc_base + (i % self.len) * Descriptor::WORDS
    }

    pub fn buf_at(&self, i: usize) -> WordIdx {
        self.buf_base + (i % self.len) * self.buf_words
    }
}

/// The chip: shared memory plus ring state.  The *driver* lives in the
/// `protocols` crate; this type implements the chip's half of the
/// protocol (DMA between shared memory and the wire).
#[derive(Debug)]
pub struct LanceChip {
    pub mem: SparseMem,
    pub tx: RingLayout,
    pub rx: RingLayout,
    pub timing: LanceTiming,
    tx_next: usize,
    rx_next: usize,
    /// Frames the chip transmitted (popped by the harness).
    pub tx_done: u64,
    pub rx_delivered: u64,
    pub rx_dropped_no_desc: u64,
}

impl LanceChip {
    pub fn new(sim_base: u64, ring_len: usize, timing: LanceTiming) -> Self {
        let buf_words = 1518usize.div_ceil(2);
        let tx = RingLayout {
            desc_base: 0,
            len: ring_len,
            buf_base: 2 * ring_len * Descriptor::WORDS,
            buf_words,
        };
        let rx = RingLayout {
            desc_base: ring_len * Descriptor::WORDS,
            len: ring_len,
            buf_base: tx.buf_base + ring_len * buf_words,
            buf_words,
        };
        let nwords = rx.buf_base + ring_len * buf_words;
        LanceChip {
            mem: SparseMem::new(nwords, sim_base),
            tx,
            rx,
            timing,
            tx_next: 0,
            rx_next: 0,
            tx_done: 0,
            rx_delivered: 0,
            rx_dropped_no_desc: 0,
        }
    }

    /// Chip side: poll the next tx descriptor; if owned by the chip,
    /// DMA the frame out and release the descriptor.  Returns the frame
    /// bytes.
    pub fn chip_transmit(&mut self) -> Option<Vec<u8>> {
        let at = self.tx.desc_at(self.tx_next);
        let mut w = [0u16; 5];
        for (k, slot) in w.iter_mut().enumerate() {
            *slot = self.mem.chip_read(at + k);
        }
        let mut d = Descriptor::from_words(w);
        if !d.owned_by_chip() {
            return None;
        }
        let len = d.bcnt as usize;
        let start = d.buf as usize;
        let mut bytes = Vec::with_capacity(len);
        for k in 0..len.div_ceil(2) {
            let wv = self.mem.chip_read(start + k).to_be_bytes();
            bytes.push(wv[0]);
            if bytes.len() < len {
                bytes.push(wv[1]);
            }
        }
        d.flags &= !Descriptor::OWN;
        d.status |= Descriptor::ENP;
        for (k, wv) in d.to_words().into_iter().enumerate() {
            self.mem.chip_write(at + k, wv);
        }
        self.tx_next = (self.tx_next + 1) % self.tx.len;
        self.tx_done += 1;
        Some(bytes)
    }

    /// Chip side: deliver received bytes into the next rx descriptor.
    /// Returns the descriptor index used, or None if the ring is full
    /// (packet dropped — a real overrun).
    pub fn chip_receive(&mut self, bytes: &[u8]) -> Option<usize> {
        let idx = self.rx_next;
        let at = self.rx.desc_at(idx);
        let mut w = [0u16; 5];
        for (k, slot) in w.iter_mut().enumerate() {
            *slot = self.mem.chip_read(at + k);
        }
        let mut d = Descriptor::from_words(w);
        if !d.owned_by_chip() {
            self.rx_dropped_no_desc += 1;
            return None;
        }
        let start = self.rx.buf_at(idx);
        for (k, chunk) in bytes.chunks(2).enumerate() {
            let wv = if chunk.len() == 2 {
                u16::from_be_bytes([chunk[0], chunk[1]])
            } else {
                u16::from_be_bytes([chunk[0], 0])
            };
            self.mem.chip_write(start + k, wv);
        }
        d.buf = start as u32;
        d.mcnt = bytes.len() as u16;
        d.flags &= !Descriptor::OWN;
        d.status |= Descriptor::STP | Descriptor::ENP;
        for (k, wv) in d.to_words().into_iter().enumerate() {
            self.mem.chip_write(at + k, wv);
        }
        self.rx_next = (self.rx_next + 1) % self.rx.len;
        self.rx_delivered += 1;
        Some(idx)
    }

    /// Convenience for tests/the driver: parse a received descriptor's
    /// frame back out of shared memory (driver side: counted accesses).
    pub fn driver_read_rx_frame(&mut self, idx: usize) -> Option<Frame> {
        let at = self.rx.desc_at(idx);
        let d = Descriptor::read_copy(&mut self.mem, at);
        if d.owned_by_chip() {
            return None;
        }
        let bytes = self.mem.read_buf(self.rx.buf_at(idx), d.mcnt as usize);
        Frame::from_bytes(&bytes).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{EtherType, MacAddr};

    fn chip() -> LanceChip {
        LanceChip::new(0x0300_0000, 8, LanceTiming::dec3000_600())
    }

    fn test_frame() -> Frame {
        Frame::new(
            MacAddr([2, 0, 0, 0, 0, 2]),
            MacAddr([2, 0, 0, 0, 0, 1]),
            EtherType::Ipv4,
            b"ping".to_vec(),
        )
    }

    #[test]
    fn descriptor_pack_unpack_roundtrip() {
        let d = Descriptor {
            buf: 0x0004_5678,
            flags: Descriptor::OWN | Descriptor::STP,
            bcnt: 64,
            status: 0,
            mcnt: 0,
        };
        assert_eq!(Descriptor::from_words(d.to_words()), d);
    }

    #[test]
    fn sparse_word_addresses_have_gaps() {
        let m = SparseMem::new(16, 0x1000);
        assert_eq!(m.word_addr(0), 0x1000);
        assert_eq!(m.word_addr(1), 0x1004, "16-bit word + 16-bit gap");
        assert_eq!(m.word_addr(5), 0x1014);
    }

    #[test]
    fn buffer_addresses_skip_16_byte_gaps() {
        let m = SparseMem::new(16, 0);
        assert_eq!(m.buf_byte_addr(0, 0), 0);
        assert_eq!(m.buf_byte_addr(0, 15), 15);
        assert_eq!(m.buf_byte_addr(0, 16), 32, "gap after each 16-byte run");
        assert_eq!(m.buf_byte_addr(0, 33), 65);
    }

    #[test]
    fn copy_update_touches_ten_words_direct_touches_two() {
        let mut m = SparseMem::new(64, 0);
        // Seed a descriptor.
        Descriptor { buf: 100, flags: 0, bcnt: 64, status: 0, mcnt: 0 }
            .write_copy(&mut m, 0);
        m.reset_counters();

        // Traditional: read all 5, write all 5 to set OWN.
        let mut d = Descriptor::read_copy(&mut m, 0);
        d.flags |= Descriptor::OWN;
        d.write_copy(&mut m, 0);
        assert_eq!(m.word_reads + m.word_writes, 10);

        m.reset_counters();
        // USC/direct: read-modify-write one word.
        Descriptor::direct_write_flags(&mut m, 0, Descriptor::OWN);
        assert_eq!(m.word_reads + m.word_writes, 2);
        // Both leave the same state.
        let after = Descriptor::read_copy(&mut m, 0);
        assert!(after.owned_by_chip());
    }

    #[test]
    fn tx_roundtrip_through_shared_memory() {
        let mut c = chip();
        let f = test_frame();
        let bytes = f.to_bytes();
        // Driver: write frame into tx buffer 0, fill descriptor, set OWN.
        let buf_start = c.tx.buf_at(0);
        c.mem.write_buf(buf_start, &bytes);
        let d = Descriptor {
            buf: buf_start as u32,
            flags: Descriptor::OWN | Descriptor::STP | Descriptor::ENP,
            bcnt: bytes.len() as u16,
            status: 0,
            mcnt: 0,
        };
        d.write_copy(&mut c.mem, c.tx.desc_at(0));

        let out = c.chip_transmit().expect("chip must see OWN");
        assert_eq!(out, bytes);
        // Descriptor returned to host.
        let d2 = Descriptor::read_copy(&mut c.mem, c.tx.desc_at(0));
        assert!(!d2.owned_by_chip());
        assert_eq!(c.tx_done, 1);
        // Nothing more to send.
        assert!(c.chip_transmit().is_none());
    }

    #[test]
    fn rx_delivery_fills_descriptor_and_buffer() {
        let mut c = chip();
        // Driver arms rx descriptor 0.
        let d = Descriptor { buf: 0, flags: Descriptor::OWN, bcnt: 1518, status: 0, mcnt: 0 };
        d.write_copy(&mut c.mem, c.rx.desc_at(0));

        let f = test_frame();
        let idx = c.chip_receive(&f.to_bytes()).expect("descriptor armed");
        assert_eq!(idx, 0);
        let parsed = c.driver_read_rx_frame(0).expect("parseable frame");
        assert_eq!(parsed.ethertype, f.ethertype);
        assert!(parsed.payload.starts_with(b"ping"));
    }

    #[test]
    fn rx_without_armed_descriptor_drops() {
        let mut c = chip();
        let f = test_frame();
        assert!(c.chip_receive(&f.to_bytes()).is_none());
        assert_eq!(c.rx_dropped_no_desc, 1);
    }

    #[test]
    fn timing_constants_match_paper() {
        let t = LanceTiming::dec3000_600();
        // 47.4 µs + 57.6 µs wire = 105 µs.
        assert_eq!(t.tx_overhead_ns + 57_600, 105_000);
    }
}
