//! Deterministic parallel sweep runner.
//!
//! Experiments fan out over independent indices (sweep points, seeds,
//! experiment ids). [`par_indexed`] runs such a fan-out across up to
//! `ctx.jobs` worker threads while keeping every observable output —
//! return values, RNG streams, and merged metrics — byte-identical to
//! the serial run:
//!
//! * each index gets its own child context ([`ExecCtx::child`]): a
//!   derived seed (`base ⊕ index`) and a private registry shard
//!   ([`hprc_obs::ShardedRegistry`]), so no instrument cell is ever
//!   shared between two workers while the fan-out runs;
//! * workers pull indices from a shared dispenser (dynamic load
//!   balancing — cheap points don't serialize behind expensive ones);
//! * results are reassembled in index order, and the shards are merged
//!   into `ctx.registry` in shard-index order
//!   ([`hprc_obs::ShardedRegistry::merge`]), which reproduces the
//!   serial recording order exactly.
//!
//! The upshot: `--jobs N` changes wall-clock time only, never results.

use hprc_ctx::ExecCtx;
use hprc_obs::ShardedRegistry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(index, child_ctx)` for every `index in 0..n`, using up to
/// `ctx.jobs` threads, and returns the results in index order.
///
/// Each invocation receives its own child context (derived seed,
/// private registry, `jobs = 1` so nested fan-outs stay serial); after
/// all indices complete, the children's registries are merged into
/// `ctx.registry` in index order. With `ctx.jobs == 1` (or `n <= 1`)
/// everything runs on the calling thread with no thread overhead.
///
/// # Panics
///
/// Propagates a panic from `f` (all other workers are joined first).
pub fn par_indexed<T, F>(n: usize, ctx: &ExecCtx, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &ExecCtx) -> T + Sync,
{
    // Single-point fan-outs skip the shard-and-merge machinery: the
    // child still gets index 0's derived seed and journal salt (so a
    // 1-point sweep reproduces the first point of an n-point sweep
    // byte-for-byte), but records straight into the parent registry —
    // merging one shard in order is the identity.
    if n == 1 {
        let child = ctx.child(0).with_registry(ctx.registry.clone());
        let out = vec![f(0, &child)];
        ctx.journal.merge_from(&child.journal);
        return out;
    }

    let shards = ShardedRegistry::new(&ctx.registry, n);
    let children: Vec<ExecCtx> = (0..n)
        .map(|i| ctx.child(i).with_registry(shards.shard(i).clone()))
        .collect();

    let results = dispense(n, ctx.effective_jobs(), |i| f(i, &children[i]));

    // Index-ordered merge reproduces the serial instrument state — for
    // the sharded registry and the per-child journals alike.
    shards.merge(&ctx.registry);
    for child in &children {
        ctx.journal.merge_from(&child.journal);
    }
    results
}

/// Evaluates `f(i)` for every `i in 0..n` on up to `jobs` scoped
/// threads that pull indices from one shared dispenser (dynamic load
/// balancing), and returns the results in index order. With
/// `jobs <= 1` everything runs on the calling thread.
///
/// # Panics
///
/// Propagates a panic from `f` (all other workers are joined first).
pub(crate) fn dispense<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.min(n);
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(slots);
    let next = AtomicUsize::new(0);
    let f = &f;
    crossbeam::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                slots.lock().expect("runner slots lock")[i] = Some(value);
            });
        }
    })
    .expect("runner scope");
    slots
        .into_inner()
        .expect("runner slots lock")
        .into_iter()
        .map(|slot| slot.expect("every index completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_obs::Registry;

    #[test]
    fn results_come_back_in_index_order() {
        let ctx = ExecCtx::default().with_jobs(4);
        let out = par_indexed(17, &ctx, |i, _| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree_on_results_and_metrics() {
        let run = |jobs: usize| {
            let ctx = ExecCtx::default()
                .with_registry(Registry::new())
                .with_jobs(jobs);
            let out = par_indexed(9, &ctx, |i, child| {
                child.registry.counter("runner.test.calls").add(1);
                child.registry.histogram("runner.test.idx").record(i as f64);
                child.seed_for(7)
            });
            (out, ctx.registry.snapshot())
        };
        let (out1, snap1) = run(1);
        let (out4, snap4) = run(4);
        assert_eq!(out1, out4);
        assert_eq!(snap1.counters["runner.test.calls"], 9);
        assert_eq!(snap1.counters, snap4.counters);
        assert_eq!(
            format!("{:?}", snap1.histograms["runner.test.idx"]),
            format!("{:?}", snap4.histograms["runner.test.idx"]),
        );
    }

    #[test]
    fn child_seeds_differ_per_index() {
        let ctx = ExecCtx::default().with_seed(100).with_jobs(2);
        let seeds = par_indexed(4, &ctx, |_, child| child.seed_for(0));
        assert_eq!(seeds, vec![100, 101, 102, 103]);
    }

    #[test]
    fn single_point_fast_path_records_into_parent() {
        let reg = Registry::new();
        let ctx = ExecCtx::default().with_registry(reg.clone()).with_jobs(4);
        let out = par_indexed(1, &ctx, |i, child| {
            child.registry.counter("runner.test.single").add(3);
            (i, child.seed_for(5))
        });
        // The child still derives index 0's seed (identity for base 0)
        // and its metrics land in the parent registry without a merge.
        assert_eq!(out, vec![(0, 5)]);
        assert_eq!(reg.snapshot().counters["runner.test.single"], 3);
    }

    #[test]
    fn zero_and_one_sized_fanouts_work() {
        let ctx = ExecCtx::default().with_jobs(8);
        assert!(par_indexed(0, &ctx, |i, _| i).is_empty());
        assert_eq!(par_indexed(1, &ctx, |i, _| i + 40), vec![40]);
    }
}
