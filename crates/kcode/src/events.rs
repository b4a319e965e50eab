//! Run-time execution recording.
//!
//! Protocol code carries a [`Recorder`] through the stack and reports
//! what it does: which functions it enters, which way each conditional
//! goes, how many times each loop iterates.  The result is an
//! [`EventStream`] — the paper's "execution trace" — that can be replayed
//! against any laid-out image.  The events are the control flow alone,
//! which is all layout reads; operands sit in the stream's operand table.

use crate::ids::{FuncId, SegId};

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// A call site executed (the next `Enter` is its callee).
    CallSite { seg: SegId },
    /// Entered a function.  Its operands are in the stream's operand
    /// table ([`EventStream::operands`]).
    Enter { func: FuncId },
    /// Straight segment executed.
    Straight { seg: SegId },
    /// Conditional segment executed, with the run-time outcome.
    Cond { seg: SegId, taken: bool },
    /// Loop segment executed `iters` times (possibly zero).
    Loop { seg: SegId, iters: u32 },
    /// Returned from the current function.
    Leave,
}

/// A recorded execution: a flat list of events plus the operands of
/// every `Enter`.  Equality compares both.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventStream {
    pub events: Vec<Ev>,
    /// Every activation's operand words, in `Enter` order.
    ops: Vec<u64>,
    /// `ops_end[k]`: where the `k`-th `Enter`'s operands end in `ops`.
    ops_end: Vec<usize>,
}

impl EventStream {
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of function activations in the stream.
    pub fn activations(&self) -> usize {
        self.events.iter().filter(|e| matches!(e, Ev::Enter { .. })).count()
    }

    /// Each `Enter`'s operands, in `Enter` order: the activation's
    /// operand base addresses (message buffer, connection state, ...),
    /// resolved by `DataRef::Operand` references in the function's
    /// blocks.
    pub fn operands(&self) -> impl Iterator<Item = &[u64]> {
        let mut start = 0;
        self.ops_end.iter().map(move |&end| {
            let ops = &self.ops[start..end];
            start = end;
            ops
        })
    }

    /// Check bracketing: every Enter has a matching Leave and the stream
    /// ends at depth zero.  Returns the maximum call depth.
    pub fn check_balanced(&self) -> Result<usize, String> {
        let mut depth = 0usize;
        let mut max_depth = 0usize;
        for (i, e) in self.events.iter().enumerate() {
            match e {
                Ev::Enter { .. } => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                Ev::Leave => {
                    depth = depth
                        .checked_sub(1)
                        .ok_or_else(|| format!("Leave at event {i} underflows"))?;
                }
                _ => {
                    if depth == 0 {
                        return Err(format!("segment event {e:?} at {i} outside any function"));
                    }
                }
            }
        }
        if depth != 0 {
            return Err(format!("stream ends at depth {depth}"));
        }
        Ok(max_depth)
    }
}

/// Records events; carried through the protocol stack by reference.
#[derive(Debug, Default)]
pub struct Recorder {
    stream: EventStream,
    depth: usize,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current call depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Record only the call-site half; the callee (e.g. a driver entry
    /// point that records its own activation) must `enter` next.
    pub fn callsite(&mut self, seg: SegId) {
        self.stream.events.push(Ev::CallSite { seg });
    }

    /// Record a direct call site followed by entering `func`.
    pub fn call(&mut self, seg: SegId, func: FuncId) {
        self.stream.events.push(Ev::CallSite { seg });
        self.enter(func);
    }

    /// Record a call site followed by entering `func` with operands.
    pub fn call_with(&mut self, seg: SegId, func: FuncId, ops: &[u64]) {
        self.stream.events.push(Ev::CallSite { seg });
        self.enter_with(func, ops);
    }

    /// Enter a function without an explicit call site (episode roots,
    /// interrupt handlers).
    pub fn enter(&mut self, func: FuncId) {
        self.enter_with(func, &[]);
    }

    /// Enter a function with activation operands.
    pub fn enter_with(&mut self, func: FuncId, ops: &[u64]) {
        self.depth += 1;
        self.stream.events.push(Ev::Enter { func });
        self.stream.ops.extend_from_slice(ops);
        self.stream.ops_end.push(self.stream.ops.len());
    }

    /// Straight segment.
    pub fn seg(&mut self, seg: SegId) {
        self.stream.events.push(Ev::Straight { seg });
    }

    /// Conditional segment; returns `taken` so it can wrap real branches:
    /// `if rec.cond(SEG, x.is_none()) { ... }`.
    pub fn cond(&mut self, seg: SegId, taken: bool) -> bool {
        self.stream.events.push(Ev::Cond { seg, taken });
        taken
    }

    /// Loop segment executed `iters` times.
    pub fn loop_iters(&mut self, seg: SegId, iters: u32) {
        self.stream.events.push(Ev::Loop { seg, iters });
    }

    /// Leave the current function.
    pub fn leave(&mut self) {
        debug_assert!(self.depth > 0, "leave() without enter()");
        self.depth = self.depth.saturating_sub(1);
        self.stream.events.push(Ev::Leave);
    }

    /// Take the recorded stream, leaving the recorder empty (an
    /// *episode* boundary).
    pub fn take(&mut self) -> EventStream {
        debug_assert_eq!(self.depth, 0, "taking an episode mid-function");
        std::mem::take(&mut self.stream)
    }

    /// Peek at the stream without taking it.
    pub fn stream(&self) -> &EventStream {
        &self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_nested_calls() {
        let mut r = Recorder::new();
        r.enter(FuncId(0));
        r.seg(SegId(0));
        r.call(SegId(1), FuncId(1));
        r.cond(SegId(2), true);
        r.leave();
        r.leave();
        let s = r.take();
        assert_eq!(s.activations(), 2);
        assert_eq!(s.check_balanced().unwrap(), 2);
    }

    #[test]
    fn cond_returns_its_argument() {
        let mut r = Recorder::new();
        r.enter(FuncId(0));
        assert!(r.cond(SegId(0), true));
        assert!(!r.cond(SegId(0), false));
        r.leave();
    }

    #[test]
    fn unbalanced_stream_detected() {
        let stream = |events| EventStream { events, ..EventStream::default() };
        let s = stream(vec![Ev::Enter { func: FuncId(0) }]);
        assert!(s.check_balanced().is_err());
        let s2 = stream(vec![Ev::Leave]);
        assert!(s2.check_balanced().is_err());
        let s3 = stream(vec![Ev::Straight { seg: SegId(0) }]);
        assert!(s3.check_balanced().is_err());
    }

    #[test]
    fn take_resets_stream() {
        let mut r = Recorder::new();
        r.enter(FuncId(0));
        r.leave();
        assert_eq!(r.take().len(), 2);
        assert!(r.take().is_empty());
    }

    #[test]
    fn depth_tracks_enter_and_leave() {
        let mut r = Recorder::new();
        r.enter(FuncId(0));
        assert_eq!(r.depth(), 1);
        r.seg(SegId(0));
        r.leave();
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn operands_stay_out_of_the_events() {
        let record = |ops: [u64; 2]| {
            let mut r = Recorder::new();
            r.enter_with(FuncId(0), &ops[..1]);
            r.call(SegId(1), FuncId(1));
            r.leave();
            r.call_with(SegId(2), FuncId(2), &ops);
            r.leave();
            r.leave();
            r.take()
        };
        let (a, b) = (record([0x9000, 0x9100]), record([0xA000, 0x9100]));
        assert_eq!(a.events, b.events, "the control flow is the same");
        assert_eq!(
            crate::fingerprint_stream(&a.events),
            crate::fingerprint_stream(&b.events)
        );
        assert_ne!(a, b, "the streams still differ in their operands");
        let ops: Vec<&[u64]> = a.operands().collect();
        assert_eq!(ops, [&[0x9000][..], &[], &[0x9000, 0x9100]]);
    }
}
