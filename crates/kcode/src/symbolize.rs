//! Symbolization: map instruction addresses of a laid-out image back to
//! function and block names — the "back-map to source" ability the
//! paper notes profile-based outliners lack.

use std::sync::Arc;

use alpha_machine::InstRecord;

use crate::ids::{BlockIdx, FuncId};
use crate::image::Image;
use crate::program::Program;

/// One resolved location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Location {
    pub func: FuncId,
    pub func_name: String,
    pub block_name: String,
    /// Offset in instructions from the block start.
    pub offset: u32,
    pub cold: bool,
}

/// Address-to-symbol resolver for one image.
pub struct Symbolizer {
    /// Sorted (start, end, func, block).
    intervals: Vec<(u64, u64, FuncId, BlockIdx)>,
    program: Arc<Program>,
}

impl Symbolizer {
    pub fn new(image: &Image) -> Self {
        let mut intervals = Vec::new();
        for (fi, func) in image.program.functions().iter().enumerate() {
            let fid = FuncId(fi as u32);
            let placement = image.placement(fid);
            for bi in 0..func.blocks.len() {
                let start = placement.block_addr[bi];
                let len = placement.block_len[bi] as u64 * 4;
                if len > 0 {
                    intervals.push((start, start + len, fid, BlockIdx(bi as u32)));
                }
            }
        }
        intervals.sort_by_key(|(s, _, _, _)| *s);
        Symbolizer { intervals, program: Arc::clone(&image.program) }
    }

    /// Resolve one address.
    pub fn resolve(&self, pc: u64) -> Option<Location> {
        let idx = self
            .intervals
            .partition_point(|(s, _, _, _)| *s <= pc)
            .checked_sub(1)?;
        let (start, end, func, block) = self.intervals[idx];
        if pc >= end {
            return None;
        }
        let f = self.program.function(func);
        Some(Location {
            func,
            func_name: f.name.clone(),
            block_name: f.block_name(block).to_string(),
            offset: ((pc - start) / 4) as u32,
            cold: f.block(block).cold,
        })
    }

    /// Annotate a trace: one line per *function transition*, with the
    /// instruction count spent in each run — a compact, human-readable
    /// rendering of the paper's published execution traces.
    pub fn annotate(&self, trace: &[InstRecord]) -> String {
        let mut out = String::new();
        let mut current: Option<(String, usize, u64)> = None;
        for rec in trace {
            let name = self
                .resolve(rec.pc)
                .map(|l| l.func_name)
                .unwrap_or_else(|| "<unknown>".to_string());
            match &mut current {
                Some((cur, count, start)) if *cur == name => {
                    *count += 1;
                    let _ = start;
                }
                _ => {
                    if let Some((cur, count, start)) = current.take() {
                        out.push_str(&format!("{start:#010x}  {cur:<22} {count:>5} insts\n"));
                    }
                    current = Some((name, 1, rec.pc));
                }
            }
        }
        if let Some((cur, count, start)) = current {
            out.push_str(&format!("{start:#010x}  {cur:<22} {count:>5} insts\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::Body;
    use crate::events::Recorder;
    use crate::func::{FrameSpec, FuncKind};
    use crate::layout::{build_image, LayoutRequest, LayoutStrategy};
    use crate::program::ProgramBuilder;
    use crate::ImageConfig;

    fn setup() -> (Image, crate::EventStream) {
        let mut pb = ProgramBuilder::new();
        let (inner, s_inner) = pb.function("callee", FuncKind::Library, FrameSpec::leaf(), |fb| {
            fb.straight("w", Body::ops(10))
        });
        let (outer, (s_o, s_c)) =
            pb.function("caller", FuncKind::Path, FrameSpec::standard(), |fb| {
                (
                    fb.straight("w", Body::ops(12)),
                    fb.call("c", inner, Body::ops(2)),
                )
            });
        let program = pb.build();
        let mut r = Recorder::new();
        r.enter(outer);
        r.seg(s_o);
        r.call(s_c, inner);
        r.seg(s_inner);
        r.leave();
        r.leave();
        let ev = r.take();
        let image = build_image(
            &program,
            LayoutRequest::new(LayoutStrategy::Linear, ImageConfig::plain("t")),
            &ev.events,
        );
        (image, ev)
    }

    #[test]
    fn resolves_every_executed_pc() {
        let (image, ev) = setup();
        let out = image.replay(&ev).unwrap();
        for rec in &out.trace {
            let loc = Symbolizer::new(&image).resolve(rec.pc);
            assert!(loc.is_some(), "pc {:#x} unresolved", rec.pc);
        }
    }

    #[test]
    fn annotation_shows_call_transitions() {
        let (image, ev) = setup();
        let out = image.replay(&ev).unwrap();
        let text = Symbolizer::new(&image).annotate(&out.trace);
        let lines: Vec<&str> = text.lines().collect();
        // caller -> callee -> caller.
        assert!(lines.len() >= 3, "{text}");
        assert!(lines[0].contains("caller"));
        assert!(lines[1].contains("callee"));
        assert!(lines[2].contains("caller"));
    }

    #[test]
    fn resolves_block_names() {
        let (image, _) = setup();
        let s = Symbolizer::new(&image);
        let program = &image.program;
        let caller = program.lookup("caller").unwrap();
        let callee = program.lookup("callee").unwrap();
        let at = |f: FuncId, b: u32| s.resolve(image.block_addr(f, crate::ids::BlockIdx(b))).unwrap();
        assert_eq!(at(caller, 0).block_name, "caller.entry");
        assert_eq!(at(caller, 1).block_name, "caller.w");
        assert_eq!(at(caller, 2).block_name, "caller.c.call");
        assert_eq!(at(callee, 1).block_name, "callee.w");
        assert_eq!(at(callee, 2).block_name, "callee.exit");
        assert_eq!(at(callee, 2).func_name, "callee");
    }

    #[test]
    fn unplaced_address_resolves_to_none() {
        let (image, _) = setup();
        let s = Symbolizer::new(&image);
        assert_eq!(s.resolve(0x3), None);
        assert_eq!(s.resolve(u64::MAX), None);
    }
}
