//! Property-based tests of the caching/prefetching substrate.

use hprc_ctx::ExecCtx;
use hprc_fault::{FaultPlan, FaultSpec, RecoveryPolicy};
use hprc_sched::policies::{AlwaysMiss, Belady, Fifo, Lfu, Lru, Markov, RandomPolicy};
use hprc_sched::simulate::simulate;
use hprc_sched::traces::TraceSpec;
use hprc_sched::{Policy, TaskId};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = Vec<TaskId>> {
    (2usize..8, 10usize..200, any::<u64>())
        .prop_map(|(n_tasks, len, seed)| TraceSpec::Uniform { n_tasks, len }.generate(seed))
}

/// The disarmed plan, or a uniform fault rate in `[0, 0.5]` under any
/// seed.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<bool>(), 0.0f64..=0.5, any::<u64>()).prop_map(|(armed, rate, seed)| {
        if armed {
            FaultPlan::new(FaultSpec::uniform(rate), RecoveryPolicy::default(), seed)
        } else {
            FaultPlan::disarmed()
        }
    })
}

fn all_policies(seed: u64) -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(AlwaysMiss::new()),
        Box::new(Fifo::new()),
        Box::new(Lru::new()),
        Box::new(Lfu::new()),
        Box::new(RandomPolicy::new(seed)),
        Box::new(Belady::new()),
        Box::new(Markov::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Accounting identity: hits + misses == calls, for every policy, with
    /// and without prefetching, under the disarmed plan or an armed one.
    #[test]
    fn accounting_identity(
        trace in arb_trace(),
        slots in 1usize..5,
        seed in any::<u64>(),
        plan in arb_plan(),
    ) {
        for mut policy in all_policies(seed) {
            for prefetch in [false, true] {
                let out = simulate(&trace, slots, policy.as_mut(), prefetch, &plan, &ExecCtx::default());
                prop_assert_eq!(out.stats.calls, trace.len() as u64);
                prop_assert_eq!(out.stats.hits + out.stats.misses, out.stats.calls);
                prop_assert!(out.stats.useful_prefetches <= out.stats.prefetch_loads);
                let h = out.hit_ratio();
                prop_assert!((0.0..=1.0).contains(&h));
                // One outcome and one fate per call; a hit's fate is clean.
                prop_assert_eq!(out.outcomes.len(), trace.len());
                prop_assert_eq!(out.fates.len(), trace.len());
                for (o, f) in out.outcomes.iter().zip(&out.fates) {
                    prop_assert!(!o.is_hit() || f.is_clean());
                }
                prop_assert!(out.dropped <= out.stats.misses);
                prop_assert!(out.escalation_wipes <= out.stats.misses);
                prop_assert!(out.blacklisted_slots <= slots);
                prop_assert!((0.0..=1.0).contains(&out.availability()));
            }
        }
    }

    /// An armed plan that never fires takes the same decisions as the
    /// disarmed plan: same stats, same outcomes, every fate clean.
    #[test]
    fn never_firing_plan_is_inert(trace in arb_trace(), seed in any::<u64>()) {
        let never = FaultPlan::new(FaultSpec::uniform(1e-300), RecoveryPolicy::default(), seed);
        prop_assert!(never.armed());
        for slots in 1usize..=4 {
            for prefetch in [false, true] {
                let clean = all_policies(seed).into_iter().map(|mut p| {
                    simulate(&trace, slots, p.as_mut(), prefetch, &FaultPlan::disarmed(), &ExecCtx::default())
                });
                let armed = all_policies(seed).into_iter().map(|mut p| {
                    simulate(&trace, slots, p.as_mut(), prefetch, &never, &ExecCtx::default())
                });
                for (a, b) in clean.zip(armed) {
                    prop_assert!(b.fates.iter().all(|f| f.is_clean()));
                    prop_assert_eq!(a, b);
                }
            }
        }
    }

    /// Belady (demand-only) achieves at least as many hits as every other
    /// demand-only policy — the classic optimality result.
    #[test]
    fn belady_dominates_demand_policies(trace in arb_trace(), slots in 1usize..5, seed in any::<u64>()) {
        let opt = simulate(&trace, slots, &mut Belady::new(), false, &FaultPlan::disarmed(), &ExecCtx::default());
        for mut policy in [
            Box::new(Fifo::new()) as Box<dyn Policy>,
            Box::new(Lru::new()),
            Box::new(Lfu::new()),
            Box::new(RandomPolicy::new(seed)),
            Box::new(AlwaysMiss::new()),
        ] {
            let out = simulate(&trace, slots, policy.as_mut(), false, &FaultPlan::disarmed(), &ExecCtx::default());
            prop_assert!(
                opt.stats.hits >= out.stats.hits,
                "belady {} < {} {}",
                opt.stats.hits,
                policy.name(),
                out.stats.hits
            );
        }
    }

    /// With as many slots as distinct tasks, every demand policy converges
    /// to cold-misses-only (one miss per distinct task).
    #[test]
    fn full_capacity_means_cold_misses_only(
        (n_tasks, len, seed) in (2usize..6, 20usize..100, any::<u64>()),
    ) {
        let trace = TraceSpec::Uniform { n_tasks, len }.generate(seed);
        let distinct: std::collections::HashSet<_> = trace.iter().collect();
        for mut policy in [
            Box::new(Fifo::new()) as Box<dyn Policy>,
            Box::new(Lru::new()),
            Box::new(Lfu::new()),
            Box::new(Belady::new()),
        ] {
            let out = simulate(&trace, n_tasks, policy.as_mut(), false, &FaultPlan::disarmed(), &ExecCtx::default());
            prop_assert_eq!(
                out.stats.misses,
                distinct.len() as u64,
                "policy {}",
                policy.name()
            );
        }
    }

    /// AlwaysMiss charges every call as a miss: H == 0 regardless of trace.
    #[test]
    fn always_miss_is_h_zero(trace in arb_trace(), slots in 1usize..5) {
        let out = simulate(&trace, slots, &mut AlwaysMiss::new(), false, &FaultPlan::disarmed(), &ExecCtx::default());
        prop_assert_eq!(out.stats.hits, 0u64);
        prop_assert_eq!(out.hit_ratio(), 0.0);
    }

    /// Prefetching never reduces the hit count for the Markov policy (its
    /// replacement is LRU either way, and speculative loads only add
    /// residents that demand loads would also bring in... verified
    /// empirically: H_prefetch >= H_demand - small slack for pathological
    /// evictions).
    #[test]
    fn markov_prefetch_usually_helps_looping_traces(
        stages in 3usize..6,
        seed in any::<u64>(),
    ) {
        let trace = TraceSpec::Looping { stages, n_tasks: stages, noise: 0.0, len: 60 * stages }
            .generate(seed);
        let plain = simulate(&trace, 2, &mut Lru::new(), false, &FaultPlan::disarmed(), &ExecCtx::default());
        let pf = simulate(&trace, 2, &mut Markov::new(), true, &FaultPlan::disarmed(), &ExecCtx::default());
        prop_assert!(pf.stats.hits >= plain.stats.hits);
    }

    /// Trace generators are deterministic per (spec, seed).
    #[test]
    fn generators_deterministic(seed in any::<u64>()) {
        let specs = [
            TraceSpec::Uniform { n_tasks: 4, len: 64 },
            TraceSpec::Zipf { n_tasks: 6, alpha: 1.2, len: 64 },
            TraceSpec::Phased { n_tasks: 10, working_set: 3, phase_len: 16, len: 64 },
            TraceSpec::Looping { stages: 3, n_tasks: 5, noise: 0.2, len: 64 },
        ];
        for spec in specs {
            prop_assert_eq!(spec.generate(seed), spec.generate(seed));
        }
    }
}
