//! Allocation-budget harness: the regression gate for the zero-copy
//! packet path.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! builds a fixed 2-flow coded MORE run (setup excluded), counts every
//! heap allocation made *during the simulation loop*, and asserts the
//! allocations-per-delivered-packet ratio stays under a committed
//! ceiling. Any future change that re-introduces per-receiver payload
//! clones, nested coded-packet assembly, or per-frame buffer churn trips
//! this gate long before it shows up in a profile.
//!
//! This file must stay its own test binary: the counting allocator is
//! process-global and would add noise (and a tiny cost) to every other
//! suite. CI runs it as a dedicated job.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use more_repro::more::{MoreAgent, MoreConfig};
use more_repro::sim::{SimConfig, Simulator, SEC};
use more_repro::topology::{generate, NodeId};

/// Counts allocation *events* (alloc + realloc), not bytes: the packet
/// path's cost model is "how many times does a frame touch the
/// allocator", which is what pooling and flat layout reduce.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counter update has no effect on layout,
// alignment, or the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; the counter bump has no
    // effect on the returned pointer or layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller guarantees `layout` is valid.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::dealloc`, forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; caller guarantees `ptr` came from
        // this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::realloc`; counting is
    // side-effect-free.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; caller guarantees the realloc
        // preconditions.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events per delivered packet the committed packet path is
/// allowed to spend. The pre-rewrite engine measured ~144.5; the
/// zero-copy path (refcounted flat packets, pooled buffers, reused
/// engine scratch) measures ~3.8. The ceiling locks in a ≥ 14×
/// reduction while leaving headroom for platform jitter.
const CEILING: f64 = 10.0;

/// The fixed scenario: two concurrent coded flows with verified payloads
/// crossing the 20-node testbed — the same shape as the golden
/// byte-identity run in `tests/packet_path_equivalence.rs`.
fn measured_run() -> (u64, usize) {
    let topo = generate::testbed(1);
    let cfg = MoreConfig {
        k: 8,
        packet_bytes: 256,
        track_payloads: true,
        ..MoreConfig::default()
    };
    let mut agent = MoreAgent::new(topo.clone(), cfg);
    let f1 = agent.add_flow(NodeId(0), &[NodeId(19)], 32);
    let f2 = agent.add_flow(NodeId(5), &[NodeId(12)], 32);
    let mut sim = Simulator::new(topo, SimConfig::default(), agent, 1);
    sim.kick(NodeId(0));
    sim.kick(NodeId(5));

    // Everything above — topology, ETX plans, agent state, event queue —
    // is setup; the budget covers only the simulation loop.
    let before = ALLOCS.load(Ordering::Relaxed);
    sim.run_until(180 * SEC, |a: &MoreAgent| a.all_done());
    let spent = ALLOCS.load(Ordering::Relaxed) - before;

    let delivered =
        sim.agent.progress(f1).delivered_packets + sim.agent.progress(f2).delivered_packets;
    (spent, delivered)
}

#[test]
fn packet_path_stays_under_allocation_budget() {
    // First run warms thread-local buffer pools and lazy statics; the
    // second run is the steady state the budget is committed against.
    let (_, warm_delivered) = measured_run();
    assert!(warm_delivered > 0, "warmup run delivered nothing");
    let (allocs, delivered) = measured_run();
    assert_eq!(delivered, 64, "scenario must complete both flows");

    let per_packet = allocs as f64 / delivered as f64;
    eprintln!("alloc_budget: {allocs} allocation events / {delivered} delivered packets = {per_packet:.1} per packet (ceiling {CEILING})");
    assert!(
        per_packet < CEILING,
        "packet path spends {per_packet:.1} allocation events per delivered \
         packet, over the committed ceiling of {CEILING} — a hot-loop \
         allocation crept back in"
    );
}
