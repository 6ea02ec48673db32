//! Steady-state allocation audit for the incremental scheduler.
//!
//! The streaming hot path promises zero per-decision heap traffic once its
//! scratch buffers are warm: arrivals toggle one arc and run one
//! scratch-buffered augmentation, releases cancel into a reused path buffer.
//! This binary installs a counting global allocator (it is its own
//! integration-test binary precisely so no other test pollutes the counter)
//! and replays an identical command script twice through one scheduler —
//! the first pass grows every buffer to its high-water mark, the second
//! must allocate nothing.

use rsin_core::scheduler::{IncrementalBackend, IncrementalScheduler};
use rsin_sim::stream::{generate_commands, StreamCommand};
use rsin_topology::builders::omega;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// with no side effects on the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, n)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn drive(inc: &mut IncrementalScheduler, cmds: &[StreamCommand]) {
    for &c in cmds {
        match c {
            StreamCommand::Request { processor } => {
                inc.request(processor).expect("valid stream");
            }
            StreamCommand::Release { processor } => {
                inc.release(processor).expect("valid stream");
            }
            StreamCommand::Stats => {}
        }
    }
}

#[test]
fn steady_state_decisions_never_allocate() {
    let net = omega(16).unwrap();
    let mut inc = IncrementalScheduler::new(&net, IncrementalBackend::MaxFlow);
    // A saturating mixed script (high load pushes through full saturation,
    // queueing, releases, and promotions).
    let cmds = generate_commands(16, 400, 0.8, 17, 0);
    // Pass 1: warm every scratch buffer to its high-water mark, then drain
    // back to the empty state so pass 2 replays the identical script.
    drive(&mut inc, &cmds);
    let mut active = [false; 16];
    for &c in &cmds {
        match c {
            StreamCommand::Request { processor } => active[processor] = true,
            StreamCommand::Release { processor } => active[processor] = false,
            StreamCommand::Stats => {}
        }
    }
    for (p, &a) in active.iter().enumerate() {
        if a {
            inc.release(p).expect("drain");
        }
    }
    assert_eq!(inc.allocated_count() + inc.queued_count(), 0);
    // Pass 2: identical decisions, warm buffers — must be allocation-free.
    let before = ALLOCS.load(Ordering::Relaxed);
    drive(&mut inc, &cmds);
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state decisions hit the allocator"
    );
    assert_eq!(inc.rebuilds(), 1);
}
