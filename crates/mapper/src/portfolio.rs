//! Deterministic fan-out: lane seeding and the result-invariant work
//! distributor.
//!
//! [`par_map`] runs independent jobs on scoped threads and returns their
//! results in item order, so the output never depends on thread count or
//! scheduling. It backs the speculative II waves of
//! [`crate::schedule::IiSearch::search`] and the
//! training-data generator's fan-out across DFGs. `chain_seed` derives
//! each lane's RNG seed from the lane *index*, which is what makes a
//! lane race a pure function of the request.
//!
//! Threads come from `std::thread::scope` — the workspace is hermetic, so
//! no rayon.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of hardware threads, with a safe floor of 1.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on up to `parallelism` scoped threads and
/// returns the results in item order. The work distribution is a shared
/// atomic cursor, but each result lands in its item's slot, so the output
/// is invariant to thread count and scheduling. `parallelism <= 1` (or a
/// single item) runs inline with no threads at all.
///
/// # Panics
///
/// A panic inside `f` is re-raised with its original payload. Sibling
/// workers stop claiming new items as soon as the first panic lands, so
/// propagation is prompt: only items already in flight finish first.
pub fn par_map<T, R, F>(parallelism: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = parallelism.max(1).min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Worker panics are caught and stashed here, then re-raised verbatim
    // after the scope joins. Letting them unwind through the scope instead
    // would replace the payload with scope's generic "a scoped thread
    // panicked" message and let every sibling drain the whole queue first.
    let aborted = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if aborted.load(Ordering::Acquire) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("item slot poisoned")
                    .take()
                    .expect("each item is claimed exactly once");
                match std::panic::catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                    Ok(r) => *results[i].lock().expect("result slot poisoned") = Some(r),
                    Err(payload) => {
                        let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        aborted.store(true, Ordering::Release);
                        break;
                    }
                }
            });
        }
    });
    if let Some(payload) = first_panic
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .take()
    {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every item produces a result")
        })
        .collect()
}

/// Derives the RNG seed of chain `chain` for target `ii`. Chain 0 keeps
/// the historical single-chain derivation (`seed ^ (ii << 32)`); later
/// chains decorrelate through a splitmix64-style finalizer.
pub(crate) fn chain_seed(seed: u64, chain: u64, ii: u32) -> u64 {
    let base = if chain == 0 {
        seed
    } else {
        let mut z = seed.wrapping_add(chain.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    base ^ (u64::from(ii) << 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::{SaMapper, SaParams};
    use crate::schedule::IiSearch;
    use crate::StrategySpec;
    use lisa_arch::Accelerator;
    use lisa_dfg::{Dfg, OpKind};

    #[test]
    fn par_map_preserves_item_order() {
        for parallelism in [1, 2, 4, 7] {
            let items: Vec<u64> = (0..20).collect();
            let out = par_map(parallelism, items, |i, x| x * 10 + i as u64);
            let expect: Vec<u64> = (0..20).map(|x| x * 10 + x).collect();
            assert_eq!(out, expect, "parallelism {parallelism}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, empty, |_, x: u32| x).is_empty());
        assert_eq!(par_map(4, vec![9], |i, x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn par_map_reraises_the_first_panic_verbatim() {
        let err = std::panic::catch_unwind(|| {
            par_map(4, (0..16u64).collect::<Vec<u64>>(), |_, x| {
                if x == 3 {
                    panic!("chain {x} exploded with cost {}", x * 2);
                }
                x
            })
        })
        .expect_err("a worker panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic! with arguments carries a String payload");
        assert_eq!(msg, "chain 3 exploded with cost 6");
    }

    #[test]
    fn par_map_siblings_stop_after_a_panic() {
        use std::sync::atomic::AtomicUsize;
        let processed = AtomicUsize::new(0);
        let total = 512usize;
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(2, (0..total).collect::<Vec<usize>>(), |_, x| {
                if x == 0 {
                    panic!("first item fails");
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                processed.fetch_add(1, Ordering::SeqCst);
            })
        }));
        assert!(err.is_err());
        let done = processed.load(Ordering::SeqCst);
        assert!(
            done < total - 1,
            "siblings drained the whole queue ({done} items) after a panic"
        );
    }

    #[test]
    fn chain_zero_keeps_historical_seed() {
        assert_eq!(chain_seed(42, 0, 3), 42 ^ (3u64 << 32));
        // Later chains must decorrelate from chain 0 and each other.
        assert_ne!(chain_seed(42, 1, 3), chain_seed(42, 0, 3));
        assert_ne!(chain_seed(42, 1, 3), chain_seed(42, 2, 3));
    }

    fn diamond() -> Dfg {
        let mut g = Dfg::new("diamond");
        let a = g.add_node(OpKind::Load, "a");
        let b = g.add_node(OpKind::Add, "b");
        let c = g.add_node(OpKind::Mul, "c");
        let d = g.add_node(OpKind::Store, "d");
        g.add_data_edge(a, b).unwrap();
        g.add_data_edge(a, c).unwrap();
        g.add_data_edge(b, d).unwrap();
        g.add_data_edge(c, d).unwrap();
        g
    }

    #[test]
    fn lane_race_is_ii_wave_thread_count_invariant() {
        let dfg = diamond();
        let acc = Accelerator::cgra("2x2", 2, 2).with_max_ii(4);
        let mapper = SaMapper::new(SaParams::fast(), 5)
            .with_strategy(StrategySpec::parse("sa,sa,sa,sa").unwrap());
        let runs: Vec<(Option<u32>, Option<String>)> = [1, 2, 4]
            .into_iter()
            .map(|threads| {
                let report = IiSearch::default().search(&mapper, &dfg, &acc, threads);
                (report.outcome.ii, report.mapping.map(|m| format!("{m:?}")))
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        assert!(runs[0].1.is_some(), "diamond maps on a 2x2");
    }
}
