//! Basic-block bodies: compact descriptors of the straight-line machine
//! code a block contains.
//!
//! A body does not enumerate individual instructions; it records how many
//! simple ALU operations and integer multiplies the block executes and
//! *which data* its loads and stores touch ([`DataRef`]).  The replayer
//! expands a body into a deterministic instruction sequence (memory
//! operations interleaved among the ALU operations, which is both what
//! compilers schedule and what the dual-issue model rewards).


use crate::ids::RegionId;

/// A symbolic data reference, resolved to a concrete address at replay
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataRef {
    /// A static region (globals, a protocol's state block, a device ring)
    /// plus a byte offset.
    Region(RegionId, u32),
    /// A runtime base address supplied by the recording protocol code
    /// (activation operand slot) plus a byte offset.  Used for message
    /// buffers, per-connection state found by demux, etc.
    Operand(u8, u32),
    /// Current stack frame plus a byte offset — spills, saved registers,
    /// locals.
    Stack(u32),
}

/// Straight-line contents of a basic block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Body {
    /// Simple single-cycle integer operations.
    pub alu: u16,
    /// Integer multiplies (long latency on the 21064).
    pub mul: u16,
    /// Loads, in program order.
    pub loads: Vec<DataRef>,
    /// Stores, in program order.
    pub stores: Vec<DataRef>,
}

impl Body {
    /// A body of `alu` ALU instructions and nothing else.
    pub fn ops(alu: u16) -> Self {
        Body { alu, ..Default::default() }
    }

    /// Builder-style: add loads.
    pub fn with_loads(mut self, loads: &[DataRef]) -> Self {
        self.loads.extend_from_slice(loads);
        self
    }

    /// Builder-style: add stores.
    pub fn with_stores(mut self, stores: &[DataRef]) -> Self {
        self.stores.extend_from_slice(stores);
        self
    }

    /// Builder-style: add `n` loads walking `region` in `stride`-byte
    /// steps from `base_off` — the common "read a header / structure"
    /// pattern.
    pub fn load_struct(mut self, region: RegionId, base_off: u32, n: u16, stride: u32) -> Self {
        self.loads.reserve_exact(n as usize);
        for i in 0..n {
            self.loads.push(DataRef::Region(region, base_off + i as u32 * stride));
        }
        self
    }

    /// Builder-style: add `n` loads walking operand `slot`.
    pub fn load_operand(mut self, slot: u8, base_off: u32, n: u16, stride: u32) -> Self {
        self.loads.reserve_exact(n as usize);
        for i in 0..n {
            self.loads.push(DataRef::Operand(slot, base_off + i as u32 * stride));
        }
        self
    }

    /// Builder-style: add `n` stores walking operand `slot`.
    pub fn store_operand(mut self, slot: u8, base_off: u32, n: u16, stride: u32) -> Self {
        self.stores.reserve_exact(n as usize);
        for i in 0..n {
            self.stores.push(DataRef::Operand(slot, base_off + i as u32 * stride));
        }
        self
    }

    /// Builder-style: add `n` stores walking `region`.
    pub fn store_struct(mut self, region: RegionId, base_off: u32, n: u16, stride: u32) -> Self {
        self.stores.reserve_exact(n as usize);
        for i in 0..n {
            self.stores.push(DataRef::Region(region, base_off + i as u32 * stride));
        }
        self
    }

    /// Builder-style: add multiplies.
    pub fn with_mul(mut self, mul: u16) -> Self {
        self.mul += mul;
        self
    }

    /// Number of instructions this body expands to (excluding any
    /// terminator the replayer may add).
    pub fn len(&self) -> u32 {
        self.alu as u32 + self.mul as u32 + self.loads.len() as u32 + self.stores.len() as u32
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deterministic expansion order: one slot per instruction.
    ///
    /// Memory operations are spread as evenly as possible among the ALU
    /// operations (loads first, then stores, matching the
    /// read-compute-write shape of protocol code); multiplies are placed
    /// after the loads they typically consume.
    pub fn expand(&self) -> Vec<SlotClass> {
        let mut slots = Vec::with_capacity(self.len() as usize);
        self.expand_into(&mut slots);
        slots
    }

    /// [`Self::expand`], appending the slots to `out` instead of
    /// allocating a fresh vector (the replay plan expands every block of
    /// a program into one shared slot array).
    pub fn expand_into(&self, out: &mut Vec<SlotClass>) {
        let start = out.len();
        let total = self.len() as usize;
        out.resize(start + total, SlotClass::Alu);
        let slots = &mut out[start..];
        let n_mem = self.loads.len() + self.stores.len();
        if n_mem > 0 {
            // Place memory ops at evenly spaced positions.
            for (k, slot) in (0..n_mem).enumerate() {
                let pos = slot * total / n_mem;
                let class = if k < self.loads.len() {
                    SlotClass::Load(k as u16)
                } else {
                    SlotClass::Store((k - self.loads.len()) as u16)
                };
                slots[pos] = class;
            }
        }
        // Multiplies take the last ALU positions before the midpoint.
        let mut placed = 0;
        for s in slots.iter_mut() {
            if placed == self.mul {
                break;
            }
            if matches!(s, SlotClass::Alu) {
                *s = SlotClass::Mul;
                placed += 1;
            }
        }
    }
}

impl Body {
    /// Split into `n` consecutive chunks (for interleaving with error
    /// checks): ALU/mul work is distributed evenly, loads and stores are
    /// dealt round-robin preserving order.
    pub fn split(&self, n: usize) -> Vec<Body> {
        let n = n.max(1);
        // Reference `k` of `len` goes to part `k * n / len`, so part `i`
        // receives references `ceil(i * len / n)..ceil((i + 1) * len / n)`.
        let share = |len: usize, i: usize| (len * (i + 1)).div_ceil(n) - (len * i).div_ceil(n);
        let mut parts: Vec<Body> = (0..n)
            .map(|i| {
                let alu = self.alu as usize / n
                    + usize::from(i < self.alu as usize % n);
                let mul = self.mul as usize / n
                    + usize::from(i < self.mul as usize % n);
                Body {
                    alu: alu as u16,
                    mul: mul as u16,
                    loads: Vec::with_capacity(share(self.loads.len(), i)),
                    stores: Vec::with_capacity(share(self.stores.len(), i)),
                }
            })
            .collect();
        for (k, l) in self.loads.iter().enumerate() {
            parts[k * n / self.loads.len().max(1)].loads.push(*l);
        }
        for (k, st) in self.stores.iter().enumerate() {
            parts[k * n / self.stores.len().max(1)].stores.push(*st);
        }
        parts
    }
}

/// One expanded instruction slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotClass {
    Alu,
    Mul,
    /// Load number `i` of the body (index into `loads`).
    Load(u16),
    /// Store number `i` of the body (index into `stores`).
    Store(u16),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_counts_everything() {
        let b = Body::ops(10)
            .with_mul(1)
            .with_loads(&[DataRef::Stack(0), DataRef::Stack(8)])
            .with_stores(&[DataRef::Stack(16)]);
        assert_eq!(b.len(), 14);
        assert!(!b.is_empty());
    }

    #[test]
    fn expansion_has_right_multiplicities() {
        let b = Body::ops(8)
            .with_mul(2)
            .with_loads(&[DataRef::Stack(0), DataRef::Stack(8), DataRef::Stack(16)])
            .with_stores(&[DataRef::Stack(24)]);
        let slots = b.expand();
        assert_eq!(slots.len(), 14);
        let alu = slots.iter().filter(|s| matches!(s, SlotClass::Alu)).count();
        let mul = slots.iter().filter(|s| matches!(s, SlotClass::Mul)).count();
        let ld = slots.iter().filter(|s| matches!(s, SlotClass::Load(_))).count();
        let st = slots.iter().filter(|s| matches!(s, SlotClass::Store(_))).count();
        assert_eq!((alu, mul, ld, st), (8, 2, 3, 1));
    }

    #[test]
    fn loads_are_spread_not_clumped() {
        let b = Body::ops(8).with_loads(&[DataRef::Stack(0), DataRef::Stack(8)]);
        let slots = b.expand();
        let positions: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, SlotClass::Load(_)))
            .map(|(i, _)| i)
            .collect();
        assert!(positions[1] - positions[0] >= 3, "loads spread out: {positions:?}");
    }

    #[test]
    fn struct_walk_builders() {
        let r = RegionId(7);
        let b = Body::ops(2).load_struct(r, 0, 3, 8).store_struct(r, 64, 2, 8);
        assert_eq!(b.loads, vec![
            DataRef::Region(r, 0),
            DataRef::Region(r, 8),
            DataRef::Region(r, 16)
        ]);
        assert_eq!(b.stores, vec![DataRef::Region(r, 64), DataRef::Region(r, 72)]);
    }

    #[test]
    fn split_sizes_each_part_exactly() {
        let r = RegionId(3);
        for (n_loads, n_stores, parts) in [(0, 0, 3), (1, 5, 3), (7, 2, 3), (9, 9, 4), (2, 11, 5)] {
            let b = Body::ops(40).load_struct(r, 0, n_loads, 8).store_struct(r, 256, n_stores, 8);
            let split = b.split(parts);
            assert_eq!(split.len(), parts);
            for p in &split {
                assert_eq!(p.loads.capacity(), p.loads.len());
                assert_eq!(p.stores.capacity(), p.stores.len());
            }
            let loads: Vec<DataRef> = split.iter().flat_map(|p| p.loads.clone()).collect();
            let stores: Vec<DataRef> = split.iter().flat_map(|p| p.stores.clone()).collect();
            assert_eq!((loads, stores), (b.loads, b.stores), "order kept");
        }
    }

    #[test]
    fn empty_body_expands_empty() {
        assert!(Body::default().expand().is_empty());
        assert!(Body::default().is_empty());
    }

    #[test]
    fn mem_only_body() {
        let b = Body::default().with_loads(&[DataRef::Stack(0)]);
        let slots = b.expand();
        assert_eq!(slots, vec![SlotClass::Load(0)]);
    }
}
