//! Threads, continuations and the LIFO stack pool.
//!
//! The paper converts stacks to first-class objects attached to threads
//! on demand, manages the pool LIFO so a fresh attachment is likely still
//! d-cache-warm, and uses continuations so the latency-sensitive path
//! normally runs on the *same* stack every time.  We model exactly the
//! allocation discipline; replay resolves `DataRef::Stack` against the
//! image's one stack top, so the continuation effect shows up as the
//! same simulated addresses recurring across path invocations.

/// Statistics about stack reuse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    pub attaches: u64,
    /// Attach satisfied by the most-recently-released stack (the warm
    /// case LIFO maximizes).
    pub warm_attaches: u64,
}

/// A pool of fixed-size stacks with LIFO reuse.
#[derive(Debug)]
pub struct StackPool {
    /// Bases of free stacks (top-of-stack addresses; stacks grow down).
    free: Vec<u64>,
    stack_bytes: u64,
    nstacks: usize,
    last_released: Option<u64>,
    pub stats: StackStats,
}

impl StackPool {
    pub fn new(nstacks: usize, stack_bytes: u64, sim_top: u64) -> Self {
        // Stack i occupies (sim_top - (i+1)*stack_bytes, sim_top - i*stack_bytes].
        let free = (0..nstacks)
            .rev()
            .map(|i| sim_top - i as u64 * stack_bytes)
            .collect();
        StackPool {
            free,
            stack_bytes,
            nstacks,
            last_released: None,
            stats: StackStats::default(),
        }
    }

    /// Attach a stack to a thread: returns its top address.
    pub fn attach(&mut self) -> u64 {
        let top = self.free.pop().expect("stack pool exhausted");
        self.stats.attaches += 1;
        if self.last_released == Some(top) {
            self.stats.warm_attaches += 1;
        }
        top
    }

    /// Release a stack back to the pool (LIFO: it will be the next one
    /// attached).
    pub fn release(&mut self, top: u64) {
        self.last_released = Some(top);
        self.free.push(top);
    }

    pub fn stack_bytes(&self) -> u64 {
        self.stack_bytes
    }

    pub fn available(&self) -> usize {
        self.free.len()
    }

    pub fn nstacks(&self) -> usize {
        self.nstacks
    }
}

/// A minimal continuation: state saved when a thread blocks so the stack
/// can be detached (the Draves-style optimization the paper adopts).
/// Protocol code stores what it needs to resume; the framework only
/// needs to know the continuation exists so the stack can be recycled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Continuation<T> {
    pub state: T,
}

impl<T> Continuation<T> {
    pub fn new(state: T) -> Self {
        Continuation { state }
    }

    pub fn resume(self) -> T {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_reuse_is_warm() {
        let mut pool = StackPool::new(4, 0x4000, 0x0C00_0000);
        let a = pool.attach();
        pool.release(a);
        let b = pool.attach();
        assert_eq!(a, b, "LIFO must hand back the same stack");
        assert_eq!(pool.stats.warm_attaches, 1);
        assert_eq!(pool.stats.attaches, 2);
    }

    #[test]
    fn distinct_stacks_do_not_overlap() {
        let mut pool = StackPool::new(3, 0x4000, 0x0C00_0000);
        let a = pool.attach();
        let b = pool.attach();
        let c = pool.attach();
        assert!(a.abs_diff(b) >= 0x4000);
        assert!(b.abs_diff(c) >= 0x4000);
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn blocked_thread_holds_stack_until_release() {
        let mut pool = StackPool::new(2, 0x4000, 0x0C00_0000);
        let a = pool.attach();
        let _b = pool.attach();
        assert_eq!(pool.available(), 0);
        pool.release(a);
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn continuation_roundtrip() {
        let c = Continuation::new((42, "resume-here"));
        assert_eq!(c.resume(), (42, "resume-here"));
    }

    #[test]
    #[should_panic(expected = "stack pool exhausted")]
    fn exhaustion_panics() {
        let mut pool = StackPool::new(1, 0x1000, 0x1000000);
        pool.attach();
        pool.attach();
    }
}
