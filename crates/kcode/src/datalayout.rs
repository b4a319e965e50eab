//! Placement of data regions in the simulated address space.
//!
//! Code and data share the b-cache (it is unified) and the layouts must
//! be able to create — or avoid — conflicts between them, so regions get
//! real addresses.  Data lives above [`DataLayout::DATA_BASE`]; code
//! images start at [`crate::image::Image::CODE_BASE`].

use crate::ids::RegionId;
use crate::program::Program;

/// Resolved addresses for every registered region, plus the simulated
/// stack area.
#[derive(Debug, Clone)]
pub struct DataLayout {
    /// Base of each region, indexed by region id (`None`: unknown).
    bases: Vec<Option<u64>>,
    /// Top of the simulated stack area (stacks grow down).
    stack_top: u64,
}

impl DataLayout {
    /// Data segment base address.
    pub const DATA_BASE: u64 = 0x0800_0000;
    /// Default stack-area top.
    pub const STACK_TOP: u64 = 0x0C00_0000;
    /// Alignment of each region (cache-block aligned, like a linker's
    /// BSS layout after the paper's padding-minimizing reorganization).
    pub const REGION_ALIGN: u64 = 64;

    /// Lay out the program's regions sequentially from
    /// [`Self::DATA_BASE`].
    pub fn for_program(program: &Program) -> Self {
        let mut bases = vec![None; program.regions().len()];
        let mut cursor = Self::DATA_BASE;
        for region in program.regions() {
            bases[region.id.0 as usize] = Some(cursor);
            let sz = (region.size as u64).max(8);
            cursor += sz.div_ceil(Self::REGION_ALIGN) * Self::REGION_ALIGN;
        }
        DataLayout { bases, stack_top: Self::STACK_TOP }
    }

    /// Address of `region` + `offset`.
    pub fn addr(&self, region: RegionId, offset: u32) -> u64 {
        self.base(region).unwrap_or(Self::DATA_BASE) + offset as u64
    }

    /// Base address of a region.
    pub fn base(&self, region: RegionId) -> Option<u64> {
        self.bases.get(region.0 as usize).copied().flatten()
    }

    pub fn stack_top(&self) -> u64 {
        self.stack_top
    }

    /// Override a region base (used by the BAD layout to engineer
    /// b-cache conflicts between hot data and hot code).
    pub fn relocate(&mut self, region: RegionId, base: u64) {
        let i = region.0 as usize;
        if i >= self.bases.len() {
            self.bases.resize(i + 1, None);
        }
        self.bases[i] = Some(base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{FrameSpec, FuncKind};
    use crate::program::ProgramBuilder;

    #[test]
    fn regions_do_not_overlap() {
        let mut pb = ProgramBuilder::new();
        let a = pb.region("a", 100);
        let b = pb.region("b", 200);
        let c = pb.region("c", 64);
        pb.function("f", FuncKind::Path, FrameSpec::leaf(), |_| ());
        let p = pb.build();
        let dl = DataLayout::for_program(&p);
        let (ba, bb, bc) = (dl.base(a).unwrap(), dl.base(b).unwrap(), dl.base(c).unwrap());
        assert!(ba + 100 <= bb, "a..{ba}+100 overlaps b at {bb}");
        assert!(bb + 200 <= bc);
        assert_eq!(ba % DataLayout::REGION_ALIGN, 0);
        assert_eq!(bb % DataLayout::REGION_ALIGN, 0);
    }

    #[test]
    fn addr_adds_offset() {
        let mut pb = ProgramBuilder::new();
        let r = pb.region("r", 64);
        let p = pb.build();
        let dl = DataLayout::for_program(&p);
        assert_eq!(dl.addr(r, 16), dl.base(r).unwrap() + 16);
    }

    #[test]
    fn relocate_moves_region() {
        let mut pb = ProgramBuilder::new();
        let r = pb.region("r", 64);
        let p = pb.build();
        let mut dl = DataLayout::for_program(&p);
        dl.relocate(r, 0x4000_0000);
        assert_eq!(dl.addr(r, 4), 0x4000_0004);
    }

    #[test]
    fn unknown_region_falls_back_to_data_base() {
        let pb = ProgramBuilder::new();
        let p = pb.build();
        let dl = DataLayout::for_program(&p);
        assert_eq!(dl.addr(RegionId(999), 0), DataLayout::DATA_BASE);
    }
}
