//! Deterministic multi-threaded parameter sweeps.
//!
//! A sweep maps a worker function over a vector of cells, each cell getting
//! its own [`SimRng`] stream derived from the master seed and the cell
//! index — so results are bit-identical regardless of thread count or
//! scheduling. Work is claimed from a shared atomic cursor.
//!
//! # Thread-count control
//!
//! By default a sweep uses [`std::thread::available_parallelism`]. That can
//! be overridden, in precedence order, by [`set_thread_override`] (wired to
//! the experiment binaries' `--threads` flag) and the `USD_THREADS`
//! environment variable — useful for pinning benchmark runs, containers
//! whose cgroup quota is below the reported core count, and debugging
//! scheduling-dependent timing. Thread count never changes results, only
//! wall clock.
//!
//! The resolution itself lives in [`sim_stats::threads`] (re-exported
//! here), so the one parallel facility in the lower layers — the batch
//! simulator's hypergeometric row fan-out — honors the same
//! `--threads`/`USD_THREADS` discipline as the sweeps. Engine
//! construction itself never consults the environment: `RunSpec::threads`
//! resolves the count once at spec construction and passes it to the
//! engines as plain data.

use sim_stats::rng::{RngFactory, SimRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub use sim_stats::threads::{resolve_threads, set_thread_override};

/// Run `work(index, &item, rng)` for every item, in parallel, returning
/// results in input order. Deterministic: cell `i` always receives the RNG
/// stream `i` of `seed`, regardless of how cells are scheduled.
pub fn sweep<I, O, F>(seed: u64, items: Vec<I>, work: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(usize, &I, &mut SimRng) -> O + Sync,
{
    run_sweep(seed, items, work, resolve_threads())
}

fn run_sweep<I, O, F>(seed: u64, items: Vec<I>, work: F, threads: usize) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(usize, &I, &mut SimRng) -> O + Sync,
{
    let factory = RngFactory::new(seed);
    let n_items = items.len();
    if n_items == 0 {
        return Vec::new();
    }
    let threads = threads.min(n_items);
    if threads <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let mut rng = factory.stream(i as u64);
                work(i, item, &mut rng)
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let items_ref = &items;
    let work_ref = &work;
    let next_ref = &next;
    let results_slots: Vec<Mutex<Option<O>>> = (0..n_items).map(|_| Mutex::new(None)).collect();
    let slots_ref = &results_slots;

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || loop {
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= n_items {
                    break;
                }
                let mut rng = factory.stream(i as u64);
                let out = work_ref(i, &items_ref[i], &mut rng);
                *slots_ref[i].lock().expect("slot poisoned") = Some(out);
            });
        }
    });

    results_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Repeat a single-cell experiment `reps` times with independent seeds and
/// collect the outputs (a one-dimensional sweep).
pub fn repeat<O, F>(seed: u64, reps: u64, work: F) -> Vec<O>
where
    O: Send,
    F: Fn(u64, &mut SimRng) -> O + Sync,
{
    sweep(seed, (0..reps).collect(), |_, &rep, rng| work(rep, rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let out = sweep(1, (0..100).collect::<Vec<u64>>(), |i, &item, _rng| {
            assert_eq!(i as u64, item);
            item * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_across_invocations() {
        let run = || sweep(7, vec![(); 50], |_, _, rng| rng.next());
        assert_eq!(run(), run());
    }

    #[test]
    fn per_cell_rngs_differ() {
        let out = sweep(3, vec![(); 10], |_, _, rng| rng.next());
        let mut dedup = out.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "cells shared RNG state");
    }

    #[test]
    fn empty_sweep() {
        let out: Vec<u64> = sweep(1, Vec::<u64>::new(), |_, &x, _| x);
        assert!(out.is_empty());
    }

    #[test]
    fn repeat_collects_all_reps() {
        let out = repeat(5, 20, |rep, _rng| rep);
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let items: Vec<u64> = (0..30).collect();
        let one = run_sweep(13, items.clone(), |_, &x, rng| x ^ rng.next(), 1);
        let four = run_sweep(13, items.clone(), |_, &x, rng| x ^ rng.next(), 4);
        let many = run_sweep(13, items, |_, &x, rng| x ^ rng.next(), 64);
        assert_eq!(one, four);
        assert_eq!(one, many);
    }

    #[test]
    fn thread_override_and_env_are_respected() {
        // The override has top precedence and must leave results unchanged.
        let reference = sweep(21, vec![(); 12], |_, _, rng| rng.next());
        set_thread_override(Some(1));
        assert_eq!(resolve_threads(), 1);
        let forced = sweep(21, vec![(); 12], |_, _, rng| rng.next());
        set_thread_override(None);
        assert_eq!(forced, reference);
        // With the override cleared, resolution still yields >= 1 workers.
        assert!(resolve_threads() >= 1);
    }

    #[test]
    fn sweep_matches_sequential_reference() {
        // The parallel path must produce exactly what the sequential path
        // produces (thread-count independence).
        let items: Vec<u64> = (0..40).collect();
        let parallel = sweep(11, items.clone(), |_, &x, rng| x + rng.below(1000));
        let factory = RngFactory::new(11);
        let sequential: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let mut rng = factory.stream(i as u64);
                x + rng.below(1000)
            })
            .collect();
        assert_eq!(parallel, sequential);
    }
}
