//! Straight-line blocks: the image-fixed half of a block body.
//!
//! A replayer emits most instructions inside block bodies — consecutive
//! pcs, no control transfer.  What such a body costs the CPU depends
//! only on its slot classes and on the pair state it starts in, and the
//! memory system needs to look at only two kinds of instruction in it:
//! the first of each i-cache line (a fetch probe) and the loads and
//! stores (a data access).  Everything but the data addresses is fixed
//! once the code is laid out, so a [`ShapeTable`] computes it once per
//! laid-out block: the length, the pairing table for each entry pair
//! state, the load and multiply counts, and the position and class of
//! every non-ALU slot.  A replay then hands the machine a
//! [`BlockShape`] plus the resolved data addresses
//! ([`crate::Machine::step_block`]), and [`BlockShape::records`]
//! materializes the same block one record at a time.

use crate::cpu::{pairing, Pairing};
use crate::inst::{InstClass, InstRecord};

/// One non-ALU slot of a block: its position and its class (a load, a
/// store or a multiply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mark {
    pub(crate) pos: u16,
    pub(crate) class: InstClass,
}

/// The fixed-size part of a shape (40 bytes); its marks live in the
/// table's flat mark vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    pc: u64,
    marks_start: u32,
    len: u16,
    marks_len: u16,
    loads: u16,
    muls: u16,
    pairing: Pairing,
}

/// Names a shape in its [`ShapeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeId(u32);

/// The shapes of many blocks, stored flat: one vector of fixed-size
/// heads and one of every shape's marks back to back.
#[derive(Debug, Clone, Default)]
pub struct ShapeTable {
    heads: Vec<Head>,
    marks: Vec<Mark>,
}

impl ShapeTable {
    /// An empty table with room for `shapes` shapes and `marks` marks.
    pub fn with_capacity(shapes: usize, marks: usize) -> Self {
        ShapeTable { heads: Vec::with_capacity(shapes), marks: Vec::with_capacity(marks) }
    }

    /// Add the shape of a block that starts at `pc` and runs `classes`
    /// (ALU operations, multiplies, loads and stores; no control
    /// transfer; at most 65,535 of them).
    pub fn push(&mut self, pc: u64, classes: impl Iterator<Item = InstClass> + Clone) -> ShapeId {
        let marks_start = self.marks.len();
        let (mut len, mut loads, mut muls) = (0u32, 0, 0);
        for class in classes.clone() {
            if class != InstClass::Alu {
                self.marks.push(Mark { pos: len as u16, class });
            }
            loads += (class == InstClass::Load) as u16;
            muls += (class == InstClass::Mul) as u16;
            len += 1;
        }
        self.heads.push(Head {
            pc,
            marks_start: marks_start as u32,
            len: u16::try_from(len).expect("a block holds at most 65,535 instructions"),
            marks_len: (self.marks.len() - marks_start) as u16,
            loads,
            muls,
            pairing: pairing(classes),
        });
        ShapeId(self.heads.len() as u32 - 1)
    }

    /// The shape `id` names.
    #[inline]
    pub fn get(&self, id: ShapeId) -> BlockShape<'_> {
        let head = &self.heads[id.0 as usize];
        let start = head.marks_start as usize;
        BlockShape { head, marks: &self.marks[start..start + head.marks_len as usize] }
    }
}

/// One block's shape: where it starts, how long it is, what it costs to
/// issue from each pair state, and where its loads, stores and
/// multiplies sit.  Every other slot is an ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockShape<'a> {
    head: &'a Head,
    marks: &'a [Mark],
}

impl<'a> BlockShape<'a> {
    /// Address of the first instruction.
    #[inline]
    pub fn pc(self) -> u64 {
        self.head.pc
    }

    /// Instructions in the block.
    #[inline]
    pub fn len(self) -> u32 {
        self.head.len as u32
    }

    pub fn is_empty(self) -> bool {
        self.head.len == 0
    }

    /// The non-ALU slots, in order.
    #[inline]
    pub(crate) fn marks(self) -> &'a [Mark] {
        self.marks
    }

    /// Loads and stores in the block: the number of data addresses a
    /// replay supplies with it.
    fn data_slots(self) -> usize {
        self.marks.len() - self.head.muls as usize
    }

    /// `(len, loads, muls)`.
    #[inline]
    pub(crate) fn counts(self) -> (u32, u32, u32) {
        (self.head.len as u32, self.head.loads as u32, self.head.muls as u32)
    }

    #[inline]
    pub(crate) fn pairing(self) -> &'a Pairing {
        &self.head.pairing
    }

    /// The block's records, one per instruction, with `data` the
    /// addresses of its loads and stores in order: the one definition
    /// of what a block means, which every block-granular consumer must
    /// reproduce.
    pub fn records<'b>(self, data: &'b [u64]) -> impl Iterator<Item = InstRecord> + 'b
    where
        'a: 'b,
    {
        debug_assert_eq!(data.len(), self.data_slots(), "one address per load and store");
        let (mut marks, mut data) = (self.marks.iter().peekable(), data.iter());
        let pc = self.head.pc;
        (0..self.head.len).map(move |pos| {
            let pc = pc + 4 * pos as u64;
            match marks.next_if(|m| m.pos == pos).map(|m| m.class) {
                None => InstRecord::alu(pc),
                Some(InstClass::Load) => InstRecord::load(pc, *data.next().expect("a load's address")),
                Some(InstClass::Store) => InstRecord::store(pc, *data.next().expect("a store's address")),
                Some(class) => InstRecord::new(pc, class),
            }
        })
    }
}
