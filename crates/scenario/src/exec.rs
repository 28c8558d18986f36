//! Sharded parallel executor on scoped std threads.
//!
//! Replaces the seed's `crossbeam::scope` + `parking_lot::Mutex`
//! implementation (neither dependency is available offline, and
//! `std::thread::scope` has covered this use since Rust 1.63). Workers
//! pull indices from a shared atomic counter, so uneven per-item costs —
//! a dead-spot Srcr run takes its full deadline while a one-hop MORE run
//! finishes in milliseconds — balance automatically.
//!
//! Results no longer funnel through a global `Mutex` around the slot
//! vector: each worker owns a channel shard and forwards every completed
//! `(index, result)` pair the moment it finishes, and the **caller's
//! thread** drains the channel in completion order. That is what lets the
//! scenario engine stream records into a [`crate::sink::RunSink`] while
//! the grid is still running instead of materializing the whole result
//! set first.

#![expect(
    clippy::indexing_slicing,
    reason = "worker indices come from a fetch_add bounded by the n-check directly above"
)]

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Maps `f` over `items` on `threads` workers, draining each result on
/// the caller's thread **in completion order** (not input order).
///
/// `drain(index, result)` receives the input index alongside the result
/// so callers can restore deterministic ordering with a bounded reorder
/// buffer; returning [`ControlFlow::Break`] stops the map early — workers
/// finish their in-flight item, notice the closed channel, and wind down
/// without starting new work.
///
/// Panics in `f` propagate (the scope re-raises worker panics after the
/// drain loop ends); a panicking worker never stalls the drain because
/// its channel shard closes when it unwinds.
pub fn par_map_streaming<T, R, F, C>(items: Vec<T>, threads: usize, f: F, mut drain: C)
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    C: FnMut(usize, R) -> ControlFlow<()>,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        for (i, item) in items.iter().enumerate() {
            if drain(i, f(item)).is_break() {
                return;
            }
        }
        return;
    }
    let next = AtomicUsize::new(0);
    // Bounded channel = backpressure: when the drain (a slow sink, a
    // stalling checkpoint fsync) falls behind, workers block in `send`
    // instead of queueing the whole grid's results in memory — the
    // pipeline's O(workers) records-in-flight bound depends on this.
    let (tx, rx) = mpsc::sync_channel::<(usize, R)>(threads * 2);
    let (items_ref, f_ref, next_ref) = (&items, &f, &next);
    std::thread::scope(move |scope| {
        for _ in 0..threads {
            let shard = tx.clone();
            scope.spawn(move || loop {
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // A closed channel means the caller broke out of the
                // drain (error or early stop): abandon remaining work.
                if shard.send((i, f_ref(&items_ref[i]))).is_err() {
                    break;
                }
            });
        }
        // Only workers hold senders now; the drain below ends when the
        // last worker finishes (or every worker panicked).
        drop(tx);
        for (i, r) in rx.iter() {
            if drain(i, r).is_break() {
                break;
            }
        }
        // Dropping `rx` here (scope end) closes the channel, so workers
        // stop pulling new indices; the scope then joins them and
        // re-raises any worker panic.
    });
}

/// Default worker count: the machine's parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod test {
    use super::*;

    /// The drained results, put back in input order.
    fn collected(items: Vec<i32>, threads: usize, f: impl Fn(&i32) -> i32 + Sync) -> Vec<i32> {
        let mut out = vec![None; items.len()];
        par_map_streaming(items, threads, f, |i, r| {
            out[i] = Some(r);
            ControlFlow::Continue(())
        });
        out.into_iter()
            .map(|r| r.expect("every index drained"))
            .collect()
    }

    #[test]
    fn single_thread_and_empty() {
        assert_eq!(collected(vec![1, 2, 3], 1, |&x| x + 1), vec![2, 3, 4]);
        assert!(collected(Vec::new(), 4, |&x| x).is_empty());
    }

    #[test]
    fn streaming_sees_every_item_exactly_once() {
        let mut seen = [false; 200];
        par_map_streaming(
            (0..200).collect(),
            8,
            |&x: &i32| x,
            |i, r| {
                assert_eq!(i as i32, r);
                assert!(!seen[i], "index {i} drained twice");
                seen[i] = true;
                ControlFlow::Continue(())
            },
        );
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn streaming_break_stops_early() {
        let mut drained = 0usize;
        par_map_streaming(
            (0..10_000).collect(),
            8,
            |&x: &i32| x,
            |_, _| {
                drained += 1;
                if drained == 5 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!(drained, 5, "drain must stop at the break");
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        collected((0..500).collect(), 8, |&x| {
            if x == 137 {
                panic!("worker 137 exploded");
            }
            x
        });
    }
}
