//! The program: all functions of a kernel image plus the data-region
//! registry.

use std::collections::HashMap;
use std::sync::Arc;


use crate::func::{FrameSpec, FuncKind, Function, FunctionBuilder, Segment};
use crate::ids::{FuncId, RegionId, SegId};

/// The global-offset-table pseudo region: callee-address loads reference
/// it.  Registered automatically by [`ProgramBuilder::new`].
pub const GOT_REGION: RegionId = RegionId(0);

/// A registered data region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    pub id: RegionId,
    pub name: String,
    pub size: u32,
}

/// An immutable, fully built program.
#[derive(Debug, Clone)]
pub struct Program {
    functions: Vec<Function>,
    regions: Vec<Region>,
    by_name: HashMap<String, FuncId>,
    /// Indexed by seg id (ids are dense): the owning function and the
    /// segment's position in its `segments`, for replay lookups.
    seg_index: Vec<(FuncId, u32)>,
}

impl Program {
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    pub fn lookup(&self, name: &str) -> Option<FuncId> {
        self.by_name.get(name).copied()
    }

    /// A segment and the function owning it: two indexed loads, the
    /// replayer's per-event lookup.
    pub fn segment(&self, seg: SegId) -> Option<(FuncId, &Segment)> {
        let &(f, i) = self.seg_index.get(seg.0 as usize)?;
        Some((f, &self.function(f).segments[i as usize]))
    }

    /// Total static size of all functions, in instructions.
    pub fn total_size_insts(&self) -> u64 {
        self.functions.iter().map(|f| f.size_insts() as u64).sum()
    }
}

/// Builds a [`Program`].  Hand one to each protocol module; each module
/// registers its functions and keeps the returned ids.
pub struct ProgramBuilder {
    functions: Vec<Function>,
    regions: Vec<Region>,
    by_name: HashMap<String, FuncId>,
    next_seg: u32,
}

impl ProgramBuilder {
    pub fn new() -> Self {
        let mut b = ProgramBuilder {
            functions: Vec::new(),
            regions: Vec::new(),
            by_name: HashMap::new(),
            next_seg: 0,
        };
        let got = b.region("__got", 4096);
        debug_assert_eq!(got, GOT_REGION);
        b
    }

    /// Register a data region of `size` bytes.
    pub fn region(&mut self, name: &str, size: u32) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region { id, name: name.to_string(), size });
        id
    }

    /// Define a function.  The closure receives a [`FunctionBuilder`]
    /// with the prologue already in place; the epilogue is appended on
    /// return.  Returns the new function's id.
    pub fn function<R>(
        &mut self,
        name: &str,
        kind: FuncKind,
        frame: FrameSpec,
        build: impl FnOnce(&mut FunctionBuilder) -> R,
    ) -> (FuncId, R) {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate function name {name:?}"
        );
        let id = FuncId(self.functions.len() as u32);
        let mut fb = FunctionBuilder::new(id, name, kind, frame, self.next_seg);
        let result = build(&mut fb);
        self.next_seg = fb.next_seg;
        let f = fb.finish();
        self.by_name.insert(name.to_string(), id);
        self.functions.push(f);
        (id, result)
    }

    pub fn build(self) -> Arc<Program> {
        let mut seg_index = vec![(FuncId(0), 0); self.next_seg as usize];
        for f in &self.functions {
            for (i, s) in f.segments.iter().enumerate() {
                seg_index[s.id.0 as usize] = (f.id, i as u32);
            }
        }
        Arc::new(Program {
            functions: self.functions,
            regions: self.regions,
            by_name: self.by_name,
            seg_index,
        })
    }
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Body;

    #[test]
    fn builds_program_with_lookup() {
        let mut pb = ProgramBuilder::new();
        let (f, seg) = pb.function("foo", FuncKind::Path, FrameSpec::standard(), |fb| {
            fb.straight("body", Body::ops(5))
        });
        let p = pb.build();
        assert_eq!(p.lookup("foo"), Some(f));
        assert_eq!(p.segment(seg).map(|(owner, s)| (owner, s.id)), Some((f, seg)));
        assert!(p.total_size_insts() > 5);
    }

    #[test]
    fn seg_ids_unique_across_functions() {
        let mut pb = ProgramBuilder::new();
        let (_, s1) = pb.function("a", FuncKind::Path, FrameSpec::leaf(), |fb| {
            fb.straight("x", Body::ops(1))
        });
        let (_, s2) = pb.function("b", FuncKind::Path, FrameSpec::leaf(), |fb| {
            fb.straight("x", Body::ops(1))
        });
        assert_ne!(s1, s2);
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_names_rejected() {
        let mut pb = ProgramBuilder::new();
        pb.function("dup", FuncKind::Path, FrameSpec::leaf(), |_| ());
        pb.function("dup", FuncKind::Path, FrameSpec::leaf(), |_| ());
    }

    #[test]
    fn got_region_is_zero() {
        let pb = ProgramBuilder::new();
        let p = pb.build();
        assert_eq!(p.regions()[0].name, "__got");
        assert_eq!(p.regions()[0].id, GOT_REGION);
    }
}
