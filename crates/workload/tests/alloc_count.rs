//! Counts the heap allocation calls of a small mixed unicast/broadcast
//! stream, so that "less work" is a check that needs no clock.
//!
//! A counting global allocator tallies `alloc`, `alloc_zeroed` and
//! `realloc` calls per thread (the test harness runs other tests on other
//! threads). The stream is shaped like the saturation lab: DB, AB and QAB
//! on a 4×4×4 mesh, one after the other, each at one loaded point. The
//! count is deterministic: it depends on what the run builds, not on
//! timing or hashing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wormcast_broadcast::Algorithm;
use wormcast_network::NetworkConfig;
use wormcast_topology::Mesh;
use wormcast_workload::{run_mixed_traffic, MixedConfig};

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; its calls are not ours.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls made so far on this thread.
fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Allocation calls of one loaded point of `alg`'s mixed stream.
fn mixed_point(alg: Algorithm) -> u64 {
    let mesh = Mesh::cube(4);
    let mc = MixedConfig {
        batch_size: 10,
        batches: 5,
        ..MixedConfig::paper(alg, 64.0, 7)
    };
    let before = calls();
    let out = run_mixed_traffic(&mesh, NetworkConfig::paper_default(), &mc);
    let spent = calls() - before;
    assert!(out.broadcasts_completed > 0, "{alg}: the stream ran");
    spent
}

#[test]
fn a_mixed_stream_stays_under_its_allocation_ceiling() {
    let per_alg: Vec<(Algorithm, u64)> = [Algorithm::Db, Algorithm::Ab, Algorithm::Qab]
        .into_iter()
        .map(|alg| (alg, mixed_point(alg)))
        .collect();
    let total: u64 = per_alg.iter().map(|&(_, n)| n).sum();
    // Hot and cold message records in place of 15 message columns, the hot
    // ones in chunks of at most 4,096: 10,031 calls (DB 1,258, AB 4,037,
    // QAB 4,736). Run paths (the paper algorithms' lines,
    // columns, serpentine segments and DOR legs as straight runs, no hop
    // list or mask per message) took 10,230 (DB 1,333, AB 4,099, QAB
    // 4,798). Shared coded paths and one-pass builders took 25,053 (DB
    // 9,304, AB 7,525, QAB 8,224); copying every route on release and
    // building schedules in several passes, 54,926.
    let ceiling = 10_031;
    assert!(
        total <= ceiling,
        "{total} allocation calls ({per_alg:?}), ceiling {ceiling}"
    );
}
