//! KIR models of the shared library routines both stacks call.
//!
//! These are the paper's *library* functions — code invoked repeatedly
//! per path invocation, which the bipartite layout keeps resident in its
//! own i-cache partition: the Internet checksum, `bcopy`, the software
//! integer divide (the Alpha has no divide instruction), the allocator,
//! message operations, the map lookup, and the event/thread primitives.
//!
//! Each model owns the `FuncId`/`SegId`s of its KIR function and offers a
//! `call(...)` helper that records a complete activation (call site →
//! enter → segments → leave).  The *call-site* segment belongs to the
//! caller and is passed in by the calling protocol.

use kcode::{Body, FuncId, Recorder, SegId};
use kcode::func::{FrameSpec, FuncKind};
use kcode::program::ProgramBuilder;

/// Internet checksum over a buffer: setup, 8-bytes-per-iteration sum
/// loop, fold.
#[derive(Debug, Clone)]
pub struct CksumModel {
    pub f: FuncId,
    pub s_setup: SegId,
    pub s_loop: SegId,
    pub s_fold: SegId,
}

impl CksumModel {
    pub fn register(pb: &mut ProgramBuilder) -> Self {
        let (f, (s_setup, s_loop, s_fold)) =
            pb.function("in_cksum", FuncKind::Library, FrameSpec::leaf(), |fb| {
                let setup = fb.straight("setup", Body::ops(6));
                let lp = fb.loop_seg_strided(
                    "sum8",
                    Body::ops(4).load_operand(0, 0, 1, 8),
                    true,
                    8,
                );
                let fold = fb.straight("fold", Body::ops(7));
                (setup, lp, fold)
            });
        CksumModel { f, s_setup, s_loop, s_fold }
    }

    /// Record a full checksum call over `len` bytes at `buf`.
    pub fn call(&self, rec: &mut Recorder, site: SegId, buf: u64, len: usize) {
        rec.call_with(site, self.f, &[buf]);
        rec.seg(self.s_setup);
        rec.loop_iters(self.s_loop, len.div_ceil(8) as u32);
        rec.seg(self.s_fold);
        rec.leave();
    }
}

/// `bcopy`: aligned 8-byte copy loop plus tail.
#[derive(Debug, Clone)]
pub struct BcopyModel {
    pub f: FuncId,
    pub s_setup: SegId,
    pub s_loop: SegId,
    pub s_tail: SegId,
}

impl BcopyModel {
    pub fn register(pb: &mut ProgramBuilder) -> Self {
        let (f, (s_setup, s_loop, s_tail)) =
            pb.function("bcopy", FuncKind::Library, FrameSpec::leaf(), |fb| {
                let setup = fb.straight("setup", Body::ops(5));
                let lp = fb.loop_seg_strided(
                    "copy8",
                    Body::ops(2)
                        .load_operand(0, 0, 1, 8)
                        .store_operand(1, 0, 1, 8),
                    true,
                    8,
                );
                let tail = fb.straight("tail", Body::ops(4));
                (setup, lp, tail)
            });
        BcopyModel { f, s_setup, s_loop, s_tail }
    }

    pub fn call(&self, rec: &mut Recorder, site: SegId, src: u64, dst: u64, len: usize) {
        rec.call_with(site, self.f, &[src, dst]);
        rec.seg(self.s_setup);
        rec.loop_iters(self.s_loop, (len / 8) as u32);
        rec.seg(self.s_tail);
        rec.leave();
    }
}

/// The software unsigned divide (`__divqu`): the Alpha's missing integer
/// division, a real function with real i-cache footprint — removing it
/// from the critical path is Table 1's 90-instruction row.
#[derive(Debug, Clone)]
pub struct DivModel {
    pub f: FuncId,
    pub s_norm: SegId,
    pub s_loop: SegId,
    pub s_fix: SegId,
}

impl DivModel {
    pub fn register(pb: &mut ProgramBuilder) -> Self {
        let (f, (s_norm, s_loop, s_fix)) =
            pb.function("__divqu", FuncKind::Library, FrameSpec::leaf(), |fb| {
                let norm = fb.straight("normalize", Body::ops(8));
                let lp = fb.loop_seg("bit", Body::ops(3), true);
                let fix = fb.straight("fixup", Body::ops(5));
                (norm, lp, fix)
            });
        DivModel { f, s_norm, s_loop, s_fix }
    }

    /// Record one division; the radix-4 bit loop scales with the
    /// dividend magnitude.
    pub fn call(&self, rec: &mut Recorder, site: SegId, dividend: u64) {
        let bits = 64 - dividend.leading_zeros().min(48);
        rec.call_with(site, self.f, &[]);
        rec.seg(self.s_norm);
        rec.loop_iters(self.s_loop, (bits / 4).max(4));
        rec.seg(self.s_fix);
        rec.leave();
    }
}

/// Kernel allocator: `malloc`-ish (free-list pop) and `free`.
#[derive(Debug, Clone)]
pub struct AllocModel {
    pub f_malloc: FuncId,
    pub s_malloc: SegId,
    pub f_free: FuncId,
    pub s_free: SegId,
}

impl AllocModel {
    pub fn register(pb: &mut ProgramBuilder) -> Self {
        let heap = pb.region("heap_meta", 4096);
        let (f_malloc, s_malloc) =
            pb.function("kmalloc", FuncKind::Library, FrameSpec::leaf(), |fb| {
                fb.straight(
                    "pop",
                    Body::ops(40).load_struct(heap, 0, 6, 8).store_struct(heap, 48, 4, 8),
                )
            });
        let (f_free, s_free) =
            pb.function("kfree", FuncKind::Library, FrameSpec::leaf(), |fb| {
                fb.straight(
                    "push",
                    Body::ops(12).load_struct(heap, 0, 2, 8).store_struct(heap, 32, 2, 8),
                )
            });
        AllocModel { f_malloc, s_malloc, f_free, s_free }
    }

    pub fn call_malloc(&self, rec: &mut Recorder, site: SegId) {
        rec.call(site, self.f_malloc);
        rec.seg(self.s_malloc);
        rec.leave();
    }
}

/// The general map lookup function (the *non*-inlined path): hash
/// computation plus chain walk.  The inlined one-entry-cache test is
/// charged in the caller's own body.
#[derive(Debug, Clone)]
pub struct MapModel {
    pub f_lookup: FuncId,
    pub s_hash: SegId,
    pub s_cache_probe: SegId,
    pub s_chain: SegId,
}

impl MapModel {
    pub fn register(pb: &mut ProgramBuilder, table_region: kcode::RegionId) -> Self {
        let (f_lookup, (s_hash, s_cache_probe, s_chain)) =
            pb.function("map_resolve", FuncKind::Library, FrameSpec::leaf(), |fb| {
                // General interface: unaligned keys, variable key sizes —
                // the complexity that makes the full function three times
                // the inlined fast path (§2.2.3).
                let hash = fb.straight(
                    "hash",
                    Body::ops(42).load_operand(0, 0, 5, 8),
                );
                let cache = fb.cond(
                    "cache_probe",
                    Body::ops(3).load_struct(table_region, 0, 1, 8),
                    Body::ops(2),
                    kcode::Predict::True,
                );
                let chain = fb.loop_seg(
                    "chain_walk",
                    Body::ops(5).load_struct(table_region, 64, 2, 8),
                    true,
                );
                (hash, cache, chain)
            });
        MapModel { f_lookup, s_hash, s_cache_probe, s_chain }
    }

    /// Record a general (function-call) lookup.  `cache_hit` is the real
    /// outcome from `xkernel::Map`; `chain_len` the number of chain
    /// entries examined on a cache miss.
    pub fn call(
        &self,
        rec: &mut Recorder,
        site: SegId,
        key_addr: u64,
        cache_hit: bool,
        chain_len: u32,
    ) {
        rec.call_with(site, self.f_lookup, &[key_addr]);
        rec.seg(self.s_hash);
        rec.cond(self.s_cache_probe, cache_hit);
        if !cache_hit {
            rec.loop_iters(self.s_chain, chain_len.max(1));
        }
        rec.leave();
    }
}

/// Message-tool operations: push/pop a header, destroy, pool get.
#[derive(Debug, Clone)]
pub struct MsgModel {
    pub f_push: FuncId,
    pub s_push: SegId,
    pub f_pop: FuncId,
    pub s_pop: SegId,
    pub f_destroy: FuncId,
    pub s_destroy_test: SegId,
    pub s_destroy_free: SegId,
    pub f_pool_get: FuncId,
    pub s_pool_get: SegId,
}

impl MsgModel {
    pub fn register(pb: &mut ProgramBuilder, pool_region: kcode::RegionId) -> Self {
        let (f_push, s_push) =
            pb.function("msg_push", FuncKind::Library, FrameSpec::leaf(), |fb| {
                fb.straight(
                    "adjust",
                    Body::ops(9)
                        .load_operand(0, 0, 2, 8)
                        .store_operand(0, 0, 1, 8),
                )
            });
        let (f_pop, s_pop) =
            pb.function("msg_pop", FuncKind::Library, FrameSpec::leaf(), |fb| {
                fb.straight(
                    "adjust",
                    Body::ops(8)
                        .load_operand(0, 0, 2, 8)
                        .store_operand(0, 0, 1, 8),
                )
            });
        let (f_destroy, (s_destroy_test, s_destroy_free)) =
            pb.function("msg_destroy", FuncKind::Library, FrameSpec::leaf(), |fb| {
                let t = fb.straight("refdec", Body::ops(6).load_operand(0, 0, 1, 8).store_operand(0, 0, 1, 8));
                let f = fb.cond(
                    "free_store",
                    Body::ops(2),
                    Body::ops(124)
                        .load_struct(pool_region, 0, 8, 8)
                        .store_struct(pool_region, 64, 8, 8),
                    kcode::Predict::None,
                );
                (t, f)
            });
        let (f_pool_get, s_pool_get) =
            pb.function("msg_pool_get", FuncKind::Library, FrameSpec::leaf(), |fb| {
                fb.straight(
                    "pop",
                    Body::ops(10).load_struct(pool_region, 0, 2, 8).store_struct(pool_region, 16, 1, 8),
                )
            });
        MsgModel {
            f_push,
            s_push,
            f_pop,
            s_pop,
            f_destroy,
            s_destroy_test,
            s_destroy_free,
            f_pool_get,
            s_pool_get,
        }
    }

    pub fn call_push(&self, rec: &mut Recorder, site: SegId, msg_addr: u64) {
        rec.call_with(site, self.f_push, &[msg_addr]);
        rec.seg(self.s_push);
        rec.leave();
    }

    pub fn call_pop(&self, rec: &mut Recorder, site: SegId, msg_addr: u64) {
        rec.call_with(site, self.f_pop, &[msg_addr]);
        rec.seg(self.s_pop);
        rec.leave();
    }

    pub fn call_destroy(&self, rec: &mut Recorder, site: SegId, msg_addr: u64, frees: bool) {
        rec.call_with(site, self.f_destroy, &[msg_addr]);
        rec.seg(self.s_destroy_test);
        rec.cond(self.s_destroy_free, frees);
        rec.leave();
    }

    pub fn call_pool_get(&self, rec: &mut Recorder, site: SegId) {
        rec.call(site, self.f_pool_get);
        rec.seg(self.s_pool_get);
        rec.leave();
    }
}

/// Thread primitives: semaphore wait/signal and the context switch.
#[derive(Debug, Clone)]
pub struct ThreadModel {
    pub f_sem_wait: FuncId,
    pub s_sem_wait_fast: SegId,
    pub s_sem_block: SegId,
    pub f_sem_signal: FuncId,
    pub s_sem_signal: SegId,
    pub f_switch: FuncId,
    pub s_switch: SegId,
}

impl ThreadModel {
    pub fn register(pb: &mut ProgramBuilder) -> Self {
        let sched = pb.region("sched_state", 1024);
        let (f_sem_wait, (s_sem_wait_fast, s_sem_block)) =
            pb.function("sem_wait", FuncKind::Library, FrameSpec::standard(), |fb| {
                let fast = fb.straight(
                    "dec",
                    Body::ops(6).load_struct(sched, 0, 1, 8).store_struct(sched, 0, 1, 8),
                );
                let block = fb.cond(
                    "block",
                    Body::ops(2),
                    Body::ops(24).load_struct(sched, 64, 3, 8).store_struct(sched, 96, 3, 8),
                    kcode::Predict::None,
                );
                (fast, block)
            });
        let (f_sem_signal, s_sem_signal) =
            pb.function("sem_signal", FuncKind::Library, FrameSpec::leaf(), |fb| {
                fb.straight(
                    "inc",
                    Body::ops(10).load_struct(sched, 0, 2, 8).store_struct(sched, 0, 2, 8),
                )
            });
        let (f_switch, s_switch) =
            pb.function("ctx_switch", FuncKind::Library, FrameSpec::heavy(), |fb| {
                fb.straight(
                    "swap",
                    Body::ops(20)
                        .load_struct(sched, 128, 8, 8)
                        .store_struct(sched, 256, 8, 8),
                )
            });
        ThreadModel {
            f_sem_wait,
            s_sem_wait_fast,
            s_sem_block,
            f_sem_signal,
            s_sem_signal,
            f_switch,
            s_switch,
        }
    }

    /// Record a semaphore wait; `blocks` if the thread must sleep.
    pub fn call_sem_wait(&self, rec: &mut Recorder, site: SegId, blocks: bool) {
        rec.call(site, self.f_sem_wait);
        rec.seg(self.s_sem_wait_fast);
        rec.cond(self.s_sem_block, blocks);
        rec.leave();
    }

    pub fn call_sem_signal(&self, rec: &mut Recorder, site: SegId) {
        rec.call(site, self.f_sem_signal);
        rec.seg(self.s_sem_signal);
        rec.leave();
    }

    pub fn call_switch(&self, rec: &mut Recorder, site: SegId) {
        rec.call(site, self.f_switch);
        rec.seg(self.s_switch);
        rec.leave();
    }
}

/// Event (timer) operations.
#[derive(Debug, Clone)]
pub struct EventModel {
    pub f_schedule: FuncId,
    pub s_schedule: SegId,
    pub f_cancel: FuncId,
    pub s_cancel: SegId,
}

impl EventModel {
    pub fn register(pb: &mut ProgramBuilder) -> Self {
        let evt = pb.region("event_heap", 2048);
        let (f_schedule, s_schedule) =
            pb.function("evt_schedule", FuncKind::Library, FrameSpec::leaf(), |fb| {
                fb.straight(
                    "insert",
                    Body::ops(16).load_struct(evt, 0, 3, 8).store_struct(evt, 64, 3, 8),
                )
            });
        let (f_cancel, s_cancel) =
            pb.function("evt_cancel", FuncKind::Library, FrameSpec::leaf(), |fb| {
                fb.straight(
                    "remove",
                    Body::ops(12).load_struct(evt, 0, 2, 8).store_struct(evt, 64, 1, 8),
                )
            });
        EventModel { f_schedule, s_schedule, f_cancel, s_cancel }
    }

    pub fn call_schedule(&self, rec: &mut Recorder, site: SegId) {
        rec.call(site, self.f_schedule);
        rec.seg(self.s_schedule);
        rec.leave();
    }

    pub fn call_cancel(&self, rec: &mut Recorder, site: SegId) {
        rec.call(site, self.f_cancel);
        rec.seg(self.s_cancel);
        rec.leave();
    }
}

/// All library models bundled, registered once per program.
#[derive(Debug, Clone)]
pub struct LibModels {
    pub cksum: CksumModel,
    pub bcopy: BcopyModel,
    pub div: DivModel,
    pub alloc: AllocModel,
    pub map: MapModel,
    pub msg: MsgModel,
    pub thread: ThreadModel,
    pub event: EventModel,
    /// Region holding the demux hash table.
    pub map_region: kcode::RegionId,
    /// Region holding message pool metadata.
    pub pool_region: kcode::RegionId,
}

impl LibModels {
    pub fn register(pb: &mut ProgramBuilder) -> Self {
        let map_region = pb.region("demux_table", 8192);
        let pool_region = pb.region("msg_pool_meta", 2048);
        LibModels {
            cksum: CksumModel::register(pb),
            bcopy: BcopyModel::register(pb),
            div: DivModel::register(pb),
            alloc: AllocModel::register(pb),
            map: MapModel::register(pb, map_region),
            msg: MsgModel::register(pb, pool_region),
            thread: ThreadModel::register(pb),
            event: EventModel::register(pb),
            map_region,
            pool_region,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcode::layout::{build_image, LayoutRequest, LayoutStrategy};
    use kcode::ImageConfig;

    fn setup() -> (std::sync::Arc<kcode::Program>, LibModels, FuncId, Vec<SegId>) {
        let mut pb = ProgramBuilder::new();
        let lib = LibModels::register(&mut pb);
        let (f_drv, sites) = pb.function(
            "driver",
            FuncKind::Path,
            FrameSpec::standard(),
            |fb| {
                (0..4)
                    .map(|i| fb.call_indirect(&format!("site{i}"), Body::ops(1)))
                    .collect::<Vec<_>>()
            },
        );
        (pb.build(), lib, f_drv, sites)
    }

    fn run(program: &std::sync::Arc<kcode::Program>, ev: kcode::EventStream) -> usize {
        let image = build_image(
            program,
            LayoutRequest::new(LayoutStrategy::LinkOrder, ImageConfig::plain("t")),
            &[],
        );
        image.replay(&ev).unwrap().len()
    }

    #[test]
    fn cksum_cost_scales_with_length() {
        let (program, lib, f_drv, sites) = setup();
        let trace_of = |len: usize| {
            let mut rec = Recorder::new();
            rec.enter(f_drv);
            lib.cksum.call(&mut rec, sites[0], 0x8000, len);
            rec.leave();
            run(&program, rec.take())
        };
        let short = trace_of(20);
        let long = trace_of(200);
        assert!(long > short + 80, "long={long} short={short}");
    }

    #[test]
    fn div_costs_around_90_dynamic_instructions() {
        let (program, lib, f_drv, sites) = setup();
        let mut rec = Recorder::new();
        rec.enter(f_drv);
        let before_len = {
            let mut r2 = Recorder::new();
            r2.enter(f_drv);
            r2.leave();
            run(&program, r2.take())
        };
        lib.div.call(&mut rec, sites[0], 65535 * 4);
        rec.leave();
        let with_div = run(&program, rec.take());
        let cost = with_div - before_len;
        assert!(
            (35..=140).contains(&cost),
            "divide cost {cost} out of the paper's ballpark (90 total              across the two per-packet divisions)"
        );
    }

    #[test]
    fn map_cache_hit_cheaper_than_chain_walk() {
        let (program, lib, f_drv, sites) = setup();
        let cost = |hit: bool| {
            let mut rec = Recorder::new();
            rec.enter(f_drv);
            lib.map.call(&mut rec, sites[0], 0x9000, hit, 3);
            rec.leave();
            run(&program, rec.take())
        };
        assert!(cost(false) > cost(true));
    }

    #[test]
    fn destroy_with_free_is_expensive() {
        let (program, lib, f_drv, sites) = setup();
        let cost = |frees: bool| {
            let mut rec = Recorder::new();
            rec.enter(f_drv);
            lib.msg.call_destroy(&mut rec, sites[0], 0xA000, frees);
            rec.leave();
            run(&program, rec.take())
        };
        assert!(cost(true) > cost(false) + 15);
    }

    #[test]
    fn all_models_replay_cleanly() {
        let (program, lib, f_drv, sites) = setup();
        let mut rec = Recorder::new();
        rec.enter(f_drv);
        lib.cksum.call(&mut rec, sites[0], 0x8000, 40);
        lib.bcopy.call(&mut rec, sites[1], 0x8000, 0x9000, 64);
        lib.alloc.call_malloc(&mut rec, sites[2]);
        lib.thread.call_sem_wait(&mut rec, sites[3], true);
        rec.leave();
        let n = run(&program, rec.take());
        assert!(n > 100);
    }
}
