//! Cache simulation: runs a task-call trace through a PRR cache under a
//! policy and a fault plan, and measures the achieved hit ratio `H` —
//! turning the model's free parameter into a measured quantity.
//!
//! A clean simulation is the one under
//! [`FaultPlan::disarmed`]: every fate is clean and the fault tallies
//! stay zero. An armed plan adds the `hprc-fault` recovery state
//! machine, and three things then set a faulty run apart:
//!
//! 1. **Escalations wipe the cache.** A partial chain that exhausts its
//!    retries escalates to a full reconfiguration, and a full bitstream
//!    overwrites the whole device — every resident partial configuration
//!    is gone, so subsequent calls that would have hit now miss. `H`
//!    degrades *honestly* instead of the cache pretending the device
//!    still holds what the fault destroyed.
//! 2. **Blacklisting shrinks the device.** A PRR that escalates
//!    `blacklist_after` times is retired; demand loads and prefetches
//!    redirect to the remaining usable slots, and once every slot is
//!    gone the system degrades to pure FRTR (every call a forced-full
//!    miss) without panicking.
//! 3. **SEUs silently corrupt residents.** After each call, a seeded
//!    upset draw may strike any occupied slot; the occupant is evicted
//!    (the next call for it becomes a miss), modelling the silent
//!    corruption + readback-detection cycle.
//!
//! The scheduler and the simulator each run their own
//! [`FaultState`] over the identical `(call, slot, miss)` stream, so
//! fates never need to be passed between the two layers — they
//! re-derive identically.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use hprc_fault::{CallFate, FaultPlan, FaultState};

use crate::cache::{CacheStats, ConfigCache, TaskId};
use crate::policy::Policy;

/// Outcome of one task call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallOutcome {
    /// Configuration was resident; no reconfiguration needed (Figure 4(b)).
    Hit {
        /// Slot holding the configuration.
        slot: usize,
    },
    /// Configuration was absent (or the policy forces reconfiguration);
    /// a partial reconfiguration was charged (Figure 4(a)).
    Miss {
        /// Slot the configuration was loaded into.
        slot: usize,
        /// Configuration evicted to make room, if any.
        evicted: Option<TaskId>,
    },
}

impl CallOutcome {
    /// Whether this call was a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, CallOutcome::Hit { .. })
    }
}

/// Result of a cache simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationOutcome {
    /// Aggregate statistics, with fault-induced misses folded in.
    pub stats: CacheStats,
    /// Per-call outcomes, in trace order (what the executors consume).
    pub outcomes: Vec<CallOutcome>,
    /// Per-call fates, in trace order — hits carry a clean fate.
    pub fates: Vec<CallFate>,
    /// Resident configurations evicted by SEU strikes.
    pub seu_invalidations: u64,
    /// Full-device wipes caused by escalated or forced-full chains.
    pub escalation_wipes: u64,
    /// PRRs blacklisted by the end of the run.
    pub blacklisted_slots: usize,
    /// Calls whose recovery chain exhausted every attempt.
    pub dropped: u64,
}

impl SimulationOutcome {
    /// The measured hit ratio `H`.
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio()
    }

    /// Availability: the fraction of calls that were *not* dropped.
    pub fn availability(&self) -> f64 {
        if self.stats.calls == 0 {
            1.0
        } else {
            1.0 - self.dropped as f64 / self.stats.calls as f64
        }
    }
}

/// Runs `trace` through a cache of `slots` PRRs under `policy`, with
/// faults drawn from `plan`. Clean callers pass
/// [`FaultPlan::disarmed`].
///
/// When `prefetch` is true, the policy's [`Policy::predict_next`] hint is
/// used after every call to speculatively load the predicted next task into
/// a victim slot (never the slot of the task that just ran — it is still
/// executing while the prefetch would proceed, exactly the overlap of
/// Figure 4(b)).
///
/// Per-policy cache metrics go to `ctx.registry`
/// ([`ExecCtx::default`](hprc_ctx::ExecCtx::default) records nothing).
/// Instruments are namespaced by the policy's [`Policy::name`], so one
/// registry can hold several policies side by side:
///
/// * counters `sched.{policy}.calls` / `.hits` / `.misses` /
///   `.evictions` / `.prefetch_loads` / `.useful_prefetches`;
/// * gauge `sched.{policy}.hit_ratio` — the measured `H` that feeds the
///   analytical model's equation (5);
/// * span `sched.simulate`, or `sched.simulate_faulty` under an armed
///   plan;
/// * under an armed plan only, counters `sched.fault.seu_invalidations`
///   / `.escalation_wipes` / `.dropped` and gauge
///   `sched.fault.blacklisted_slots`.
///
/// ```
/// use hprc_ctx::ExecCtx;
/// use hprc_fault::FaultPlan;
/// use hprc_sched::policies::Lru;
/// use hprc_sched::simulate::simulate;
/// use hprc_sched::TaskId;
///
/// // Two tasks alternating over two PRRs: cold misses, then all hits.
/// let trace: Vec<TaskId> = (0..10).map(|i| TaskId(i % 2)).collect();
/// let plan = FaultPlan::disarmed();
/// let outcome = simulate(&trace, 2, &mut Lru::new(), false, &plan, &ExecCtx::default());
/// assert_eq!(outcome.stats.misses, 2);
/// assert_eq!(outcome.stats.hits, 8);
/// ```
///
/// # Panics
///
/// Panics when `slots == 0`, under any plan: the cache needs at least
/// one PRR ([`ConfigCache::new`]). Everything the fault machinery adds
/// is panic-free, including blacklisting every slot.
pub fn simulate(
    trace: &[TaskId],
    slots: usize,
    policy: &mut dyn Policy,
    prefetch: bool,
    plan: &FaultPlan,
    ctx: &hprc_ctx::ExecCtx,
) -> SimulationOutcome {
    let armed = plan.armed();
    let name = if armed {
        "sched.simulate_faulty"
    } else {
        "sched.simulate"
    };
    let registry = &ctx.registry;
    let _span = registry.span(name);
    let j = &ctx.journal;
    let js = j.enter(name, 0, 0);
    // Budget hook: each call is one charged event. The refused tail is
    // dropped deterministically (same cutoff sequence on every rerun)
    // and tallied as would-have-run; an unlimited budget admits all.
    let trace = &trace[..ctx.budget.admit(trace.len())];
    // Delta path: memoized skeletons replay shared prefixes of earlier
    // runs (under faults, the first plan disagreement bounds the
    // replay). Replays are byte-identical to longhand simulation, and
    // all recording below derives from the outcome alone, so the swap
    // is invisible to every artifact — including instrumented runs.
    let out = match (ctx.delta.is_enabled(), armed) {
        (false, _) => simulate_inner(trace, slots, policy, prefetch, plan),
        (true, false) => {
            crate::delta::simulate_clean_delta(trace, slots, policy, prefetch, &ctx.delta)
        }
        (true, true) => {
            crate::delta::simulate_faulty_delta(trace, slots, policy, prefetch, plan, &ctx.delta)
        }
    };
    record_outcome(registry, policy.name(), &out, armed);
    j.metric("sched.calls", out.stats.calls);
    j.metric("sched.hits", out.stats.hits);
    j.metric("sched.misses", out.stats.misses);
    if armed {
        j.metric("sched.fault.seu_invalidations", out.seu_invalidations);
        j.metric("sched.fault.escalation_wipes", out.escalation_wipes);
        j.metric("sched.fault.dropped", out.dropped);
    }
    j.exit(js, 0);
    out
}

/// Records one simulation's per-policy cache metrics, plus the fault
/// tallies when the plan was armed.
fn record_outcome(
    registry: &hprc_obs::Registry,
    policy_name: &str,
    outcome: &SimulationOutcome,
    armed: bool,
) {
    if !registry.is_enabled() {
        return;
    }
    let prefix = format!("sched.{policy_name}");
    let s = &outcome.stats;
    registry.counter(&format!("{prefix}.calls")).add(s.calls);
    registry.counter(&format!("{prefix}.hits")).add(s.hits);
    registry.counter(&format!("{prefix}.misses")).add(s.misses);
    let evictions = outcome
        .outcomes
        .iter()
        .filter(|o| {
            matches!(
                o,
                CallOutcome::Miss {
                    evicted: Some(_),
                    ..
                }
            )
        })
        .count() as u64;
    registry
        .counter(&format!("{prefix}.evictions"))
        .add(evictions);
    registry
        .counter(&format!("{prefix}.prefetch_loads"))
        .add(s.prefetch_loads);
    registry
        .counter(&format!("{prefix}.useful_prefetches"))
        .add(s.useful_prefetches);
    registry
        .gauge(&format!("{prefix}.hit_ratio"))
        .set(outcome.hit_ratio());
    if armed {
        registry
            .counter("sched.fault.seu_invalidations")
            .add(outcome.seu_invalidations);
        registry
            .counter("sched.fault.escalation_wipes")
            .add(outcome.escalation_wipes);
        registry.counter("sched.fault.dropped").add(outcome.dropped);
        registry
            .gauge("sched.fault.blacklisted_slots")
            .set(outcome.blacklisted_slots as f64);
    }
}

fn first_empty_usable(cache: &ConfigCache, state: &FaultState) -> Option<usize> {
    (0..cache.slot_count()).find(|&s| cache.occupant(s).is_none() && !state.is_blacklisted(s))
}

fn first_usable(state: &FaultState, slots: usize) -> usize {
    (0..slots).find(|&s| !state.is_blacklisted(s)).unwrap_or(0)
}

/// The resumable core of a simulation: all mutable run state in one
/// struct, advanced one call at a time. The delta layer
/// ([`crate::delta`]) snapshots and restores it mid-trace (swapping in
/// the sweep point's own plan via [`FaultState::set_plan`]); the plain
/// path just drives it start to finish.
pub(crate) struct Sim {
    pub(crate) state: FaultState,
    pub(crate) cache: ConfigCache,
    pub(crate) stats: CacheStats,
    pub(crate) outcomes: Vec<CallOutcome>,
    pub(crate) fates: Vec<CallFate>,
    pub(crate) speculative: HashSet<TaskId>,
    pub(crate) seu_invalidations: u64,
    pub(crate) escalation_wipes: u64,
    pub(crate) dropped: u64,
}

impl Sim {
    pub(crate) fn new(plan: FaultPlan, slots: usize, len: usize) -> Self {
        Sim {
            state: FaultState::new(plan, slots),
            cache: ConfigCache::new(slots),
            stats: CacheStats::default(),
            outcomes: Vec::with_capacity(len),
            fates: Vec::with_capacity(len),
            speculative: HashSet::new(),
            seu_invalidations: 0,
            escalation_wipes: 0,
            dropped: 0,
        }
    }

    /// Processes call `i` of the trace (task `task`).
    pub(crate) fn step(&mut self, i: usize, task: TaskId, policy: &mut dyn Policy, prefetch: bool) {
        let slots = self.cache.slot_count();
        self.stats.calls += 1;
        let resident_slot = self.cache.slot_of(task);
        let (outcome, fate) = match resident_slot {
            Some(slot) if !policy.forces_miss() => {
                self.stats.hits += 1;
                if self.speculative.remove(&task) {
                    self.stats.useful_prefetches += 1;
                }
                (CallOutcome::Hit { slot }, CallFate::clean_partial())
            }
            _ => {
                self.stats.misses += 1;
                self.speculative.remove(&task);
                // Demand slot choice, redirected away from retired PRRs;
                // a forced miss on a resident task reconfigures in place.
                // With every PRR blacklisted the chain is forced full;
                // slot 0 is the conventional (unusable) target, and the
                // simulator's own FaultState derives the same fate from
                // it.
                let slot = if self.state.all_blacklisted() {
                    0
                } else {
                    let chosen = resident_slot
                        .or_else(|| first_empty_usable(&self.cache, &self.state))
                        .unwrap_or_else(|| policy.choose_victim(&self.cache, task, i));
                    if self.state.is_blacklisted(chosen) {
                        first_usable(&self.state, slots)
                    } else {
                        chosen
                    }
                };
                let fate = self.state.on_miss(i as u64, slot);
                let mut evicted = None;
                if fate.escalated || fate.forced_full {
                    // The full bitstream overwrote the whole device.
                    self.cache.clear();
                    self.speculative.clear();
                    self.escalation_wipes += 1;
                    if fate.dropped {
                        self.dropped += 1;
                    } else if !self.state.is_blacklisted(slot) {
                        self.cache.load(slot, task);
                        policy.on_load(task, slot, i);
                    }
                } else {
                    evicted = self.cache.load(slot, task);
                    if let Some(e) = evicted {
                        self.speculative.remove(&e);
                    }
                    policy.on_load(task, slot, i);
                }
                (
                    CallOutcome::Miss {
                        slot,
                        evicted: evicted.filter(|&e| e != task),
                    },
                    fate,
                )
            }
        };
        let slot = match outcome {
            CallOutcome::Hit { slot } | CallOutcome::Miss { slot, .. } => slot,
        };
        policy.on_access(task, slot, i);
        self.outcomes.push(outcome);
        self.fates.push(fate);

        // SEU sweep: seeded upsets silently corrupt resident slots; the
        // eviction is how the (detected-on-next-use) corruption becomes
        // a forced miss downstream. A plan that draws no upsets (every
        // clean run) skips the sweep.
        if self.state.plan().spec.p_seu > 0.0 {
            for s in 0..slots {
                if self.cache.occupant(s).is_some() && self.state.seu_strikes(i as u64, s) {
                    if let Some(e) = self.cache.clear_slot(s) {
                        self.speculative.remove(&e);
                    }
                    self.seu_invalidations += 1;
                }
            }
        }

        if prefetch && !self.state.all_blacklisted() {
            if let Some(pred) = policy.predict_next(task) {
                if pred != task && !self.cache.contains(pred) {
                    let target = first_empty_usable(&self.cache, &self.state)
                        .unwrap_or_else(|| policy.choose_victim(&self.cache, pred, i));
                    let target = if self.state.is_blacklisted(target) {
                        first_usable(&self.state, slots)
                    } else {
                        target
                    };
                    // Never evict the task that is executing right now.
                    if Some(target) != self.cache.slot_of(task) {
                        if let Some(e) = self.cache.load(target, pred) {
                            self.speculative.remove(&e);
                        }
                        policy.on_load(pred, target, i);
                        self.stats.prefetch_loads += 1;
                        self.speculative.insert(pred);
                    }
                }
            }
        }
    }

    pub(crate) fn finish(self) -> SimulationOutcome {
        SimulationOutcome {
            stats: self.stats,
            outcomes: self.outcomes,
            fates: self.fates,
            seu_invalidations: self.seu_invalidations,
            escalation_wipes: self.escalation_wipes,
            blacklisted_slots: self.state.blacklisted_slots(),
            dropped: self.dropped,
        }
    }
}

pub(crate) fn simulate_inner(
    trace: &[TaskId],
    slots: usize,
    policy: &mut dyn Policy,
    prefetch: bool,
    plan: &FaultPlan,
) -> SimulationOutcome {
    let mut sim = Sim::new(*plan, slots, trace.len());
    policy.observe_trace(trace);
    for (i, &task) in trace.iter().enumerate() {
        sim.step(i, task, policy, prefetch);
    }
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{AlwaysMiss, Belady, Lru, Markov};
    use hprc_fault::{FaultSpec, RecoveryPolicy};

    fn ids(v: &[usize]) -> Vec<TaskId> {
        v.iter().map(|&i| TaskId(i)).collect()
    }

    fn dctx() -> hprc_ctx::ExecCtx {
        hprc_ctx::ExecCtx::default()
    }

    fn plan(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan::new(FaultSpec::uniform(rate), RecoveryPolicy::default(), seed)
    }

    #[test]
    #[should_panic(expected = "at least one PRR slot")]
    fn zero_slots_panic_under_an_armed_plan_too() {
        simulate(
            &ids(&[0, 1]),
            0,
            &mut Lru::new(),
            false,
            &plan(0.1, 1),
            &dctx(),
        );
    }

    #[test]
    fn always_miss_yields_h_zero() {
        let trace = ids(&[0, 1, 0, 1, 0, 1]);
        let out = simulate(
            &trace,
            2,
            &mut AlwaysMiss::new(),
            false,
            &FaultPlan::disarmed(),
            &dctx(),
        );
        assert_eq!(out.stats.misses, 6);
        assert_eq!(out.hit_ratio(), 0.0);
    }

    #[test]
    fn lru_two_slots_two_tasks_hits_after_warmup() {
        let trace = ids(&[0, 1, 0, 1, 0, 1, 0, 1]);
        let out = simulate(
            &trace,
            2,
            &mut Lru::new(),
            false,
            &FaultPlan::disarmed(),
            &dctx(),
        );
        // Two cold misses, then all hits.
        assert_eq!(out.stats.misses, 2);
        assert_eq!(out.stats.hits, 6);
    }

    #[test]
    fn three_tasks_two_slots_round_robin_defeats_lru() {
        // Cyclic A B C with 2 slots: LRU misses every call (classic
        // pathological case).
        let trace = ids(&[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let out = simulate(
            &trace,
            2,
            &mut Lru::new(),
            false,
            &FaultPlan::disarmed(),
            &dctx(),
        );
        assert_eq!(out.stats.hits, 0);
    }

    #[test]
    fn event_budget_truncates_the_trace_deterministically() {
        let trace = ids(&[0, 1, 0, 1, 0, 1, 0, 1]);
        let run = || {
            let ctx = dctx().with_budget(hprc_obs::RunBudget::events(5));
            let out = simulate(
                &trace,
                2,
                &mut Lru::new(),
                false,
                &FaultPlan::disarmed(),
                &ctx,
            );
            (out.stats.calls, ctx.budget.cutoff_seq())
        };
        let (calls, cutoff) = run();
        assert_eq!(calls, 5, "only the admitted prefix runs");
        assert_eq!(cutoff, Some(6), "first refusal is charge 6");
        assert_eq!(run(), (calls, cutoff), "same cutoff on every rerun");
        // The admitted prefix behaves exactly like the shorter trace.
        let whole = simulate(
            &trace[..5],
            2,
            &mut Lru::new(),
            false,
            &FaultPlan::disarmed(),
            &dctx(),
        );
        assert_eq!(whole.stats.hits, 3);
    }

    #[test]
    fn belady_beats_lru_on_cyclic_trace() {
        let trace = ids(&[0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let lru = simulate(
            &trace,
            2,
            &mut Lru::new(),
            false,
            &FaultPlan::disarmed(),
            &dctx(),
        );
        let opt = simulate(
            &trace,
            2,
            &mut Belady::new(),
            false,
            &FaultPlan::disarmed(),
            &dctx(),
        );
        assert!(opt.stats.hits > lru.stats.hits);
    }

    #[test]
    fn markov_prefetch_learns_cycle() {
        // A B A B ... with 2 slots and prefetching: after the transition
        // table warms up, the predictor always preloads the other task.
        let trace = ids(&[0, 1].repeat(50));
        let out = simulate(
            &trace,
            2,
            &mut Markov::new(),
            true,
            &FaultPlan::disarmed(),
            &dctx(),
        );
        assert!(out.hit_ratio() > 0.9, "H = {}", out.hit_ratio());
        assert!(out.stats.useful_prefetches <= out.stats.prefetch_loads);
    }

    #[test]
    fn markov_prefetch_on_three_task_cycle_two_slots() {
        // A B C cycling through 2 slots defeats pure LRU entirely, but a
        // perfect next-task prefetcher hides most misses.
        let trace = ids(&[0, 1, 2].repeat(100));
        let plain = simulate(
            &trace,
            2,
            &mut Lru::new(),
            false,
            &FaultPlan::disarmed(),
            &dctx(),
        );
        let pf = simulate(
            &trace,
            2,
            &mut Markov::new(),
            true,
            &FaultPlan::disarmed(),
            &dctx(),
        );
        assert_eq!(plain.stats.hits, 0);
        assert!(pf.hit_ratio() > 0.5, "prefetching H = {}", pf.hit_ratio());
    }

    #[test]
    fn hits_plus_misses_equals_calls() {
        let trace = ids(&[0, 3, 1, 2, 0, 0, 2, 1, 3, 2]);
        let out = simulate(
            &trace,
            2,
            &mut Lru::new(),
            true,
            &FaultPlan::disarmed(),
            &dctx(),
        );
        assert_eq!(out.stats.hits + out.stats.misses, out.stats.calls);
        assert_eq!(out.outcomes.len(), trace.len());
        let hits = out.outcomes.iter().filter(|o| o.is_hit()).count() as u64;
        assert_eq!(hits, out.stats.hits);
    }

    #[test]
    fn single_slot_cache_works() {
        let trace = ids(&[0, 0, 1, 1, 0]);
        let out = simulate(
            &trace,
            1,
            &mut Lru::new(),
            false,
            &FaultPlan::disarmed(),
            &dctx(),
        );
        assert_eq!(out.stats.hits, 2);
        assert_eq!(out.stats.misses, 3);
    }

    #[test]
    fn instrumented_simulation_measures_h_per_policy() {
        let trace = ids(&[0, 1, 0, 1, 0, 1, 0, 1]);
        let ctx = dctx().with_registry(hprc_obs::Registry::new());
        let lru = simulate(
            &trace,
            2,
            &mut Lru::new(),
            false,
            &FaultPlan::disarmed(),
            &ctx,
        );
        let miss = simulate(
            &trace,
            2,
            &mut AlwaysMiss::new(),
            false,
            &FaultPlan::disarmed(),
            &ctx,
        );
        let snap = ctx.registry.snapshot();

        // Per-policy namespacing keeps both measurements side by side.
        assert_eq!(snap.counters["sched.lru.calls"], 8);
        assert_eq!(snap.counters["sched.lru.hits"], 6);
        assert_eq!(snap.counters["sched.lru.misses"], 2);
        assert_eq!(snap.counters["sched.always-miss.misses"], 8);

        // The gauge is the measured H — identical to the outcome's.
        assert_eq!(snap.gauges["sched.lru.hit_ratio"], lru.hit_ratio());
        assert_eq!(snap.gauges["sched.always-miss.hit_ratio"], miss.hit_ratio());

        // Counter-derived H equals the outcome-derived H exactly.
        let h = snap.counters["sched.lru.hits"] as f64 / snap.counters["sched.lru.calls"] as f64;
        assert_eq!(h, lru.hit_ratio());
    }

    #[test]
    fn instrumentation_does_not_change_outcomes() {
        let trace = ids(&[0, 1, 2].repeat(20));
        let plain = simulate(
            &trace,
            2,
            &mut Belady::new(),
            false,
            &FaultPlan::disarmed(),
            &dctx(),
        );
        let traced = simulate(
            &trace,
            2,
            &mut Belady::new(),
            false,
            &FaultPlan::disarmed(),
            &dctx().with_registry(hprc_obs::Registry::new()),
        );
        assert_eq!(plain, traced);
    }

    #[test]
    fn eviction_counter_matches_outcomes() {
        let trace = ids(&[0, 1, 2, 0, 1, 2]);
        let ctx = dctx().with_registry(hprc_obs::Registry::new());
        let out = simulate(
            &trace,
            2,
            &mut Lru::new(),
            false,
            &FaultPlan::disarmed(),
            &ctx,
        );
        let evictions = out
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    CallOutcome::Miss {
                        evicted: Some(_),
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(
            ctx.registry.snapshot().counters["sched.lru.evictions"],
            evictions
        );
        assert!(evictions > 0);
    }

    #[test]
    fn disarmed_plan_records_a_clean_simulate_span_and_no_fault_instruments() {
        let trace = ids(&[0, 1, 2].repeat(30));
        let ctx = dctx().with_registry(hprc_obs::Registry::new());
        let out = simulate(
            &trace,
            2,
            &mut Markov::new(),
            true,
            &FaultPlan::disarmed(),
            &ctx,
        );
        assert!(out.fates.iter().all(|f| f.is_clean()));
        assert_eq!(out.fates.len(), trace.len());
        assert_eq!(out.dropped, 0);
        assert_eq!(out.blacklisted_slots, 0);
        assert_eq!(out.seu_invalidations + out.escalation_wipes, 0);
        let snap = ctx.registry.snapshot();
        let spans: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(spans, ["sched.simulate"]);
        assert_eq!(snap.counters["sched.markov.calls"], 90);
        assert!(
            !snap
                .counters
                .keys()
                .chain(snap.gauges.keys())
                .any(|k| k.starts_with("sched.fault.")),
            "no fault instrument under the disarmed plan"
        );
        // An armed run records under the faulty name, fault tallies included.
        let actx = dctx().with_registry(hprc_obs::Registry::new());
        simulate(&trace, 2, &mut Markov::new(), true, &plan(0.2, 1), &actx);
        let asnap = actx.registry.snapshot();
        assert_eq!(asnap.spans[0].name, "sched.simulate_faulty");
        assert!(asnap.counters.contains_key("sched.fault.dropped"));
        assert!(asnap.gauges.contains_key("sched.fault.blacklisted_slots"));
    }

    #[test]
    fn seu_strikes_evict_residents_and_cost_hits() {
        // SEU-only faults: the partial chains themselves never fail, so
        // every lost hit is a silent upset eviction.
        let spec = FaultSpec {
            p_seu: 0.3,
            ..FaultSpec::default()
        };
        let p = FaultPlan::new(spec, RecoveryPolicy::default(), 7);
        let trace = ids(&[0, 1].repeat(100));
        let clean = simulate(
            &trace,
            2,
            &mut Lru::new(),
            false,
            &FaultPlan::disarmed(),
            &dctx(),
        );
        let faulty = simulate(&trace, 2, &mut Lru::new(), false, &p, &dctx());
        assert!(faulty.seu_invalidations > 0);
        assert_eq!(faulty.escalation_wipes, 0);
        assert_eq!(faulty.dropped, 0);
        assert!(
            faulty.hit_ratio() < clean.hit_ratio(),
            "H {} !< clean {}",
            faulty.hit_ratio(),
            clean.hit_ratio()
        );
        // Every upset becomes a later miss or dies unobserved; totals hold.
        let s = &faulty.stats;
        assert_eq!(s.hits + s.misses, s.calls);
    }

    #[test]
    fn certain_faults_blacklist_everything_and_degrade_to_frtr() {
        // Partial chains always fail (CRC), full chains always succeed:
        // each miss escalates, wipes the cache, and after
        // `blacklist_after` escalations per PRR the device is pure FRTR.
        let spec = FaultSpec {
            p_crc: 1.0,
            ..FaultSpec::default()
        };
        let p = FaultPlan::new(spec, RecoveryPolicy::default(), 3);
        let trace = ids(&[0, 1, 2].repeat(20));
        let ctx = dctx().with_registry(hprc_obs::Registry::new());
        let faulty = simulate(&trace, 2, &mut Lru::new(), false, &p, &ctx);
        assert_eq!(faulty.blacklisted_slots, 2);
        assert_eq!(faulty.dropped, 0);
        // Every call misses: escalations wipe the cache each time.
        assert_eq!(faulty.stats.hits, 0);
        assert_eq!(faulty.escalation_wipes, 60);
        assert!(faulty.fates.iter().all(|f| f.escalated || f.forced_full));
        // Once blacklisted, misses are forced-full (no partial attempts).
        assert!(faulty.fates.iter().skip(10).all(|f| f.forced_full));
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.gauges["sched.fault.blacklisted_slots"], 2.0);
        assert_eq!(snap.counters["sched.fault.escalation_wipes"], 60);
        assert_eq!(snap.counters["sched.lru.misses"], 60);
    }

    #[test]
    fn fully_blacklisted_device_keeps_running_with_prefetch_enabled() {
        let spec = FaultSpec {
            p_crc: 1.0,
            p_seu: 0.5,
            ..FaultSpec::default()
        };
        let p = FaultPlan::new(spec, RecoveryPolicy::default(), 11);
        let trace = ids(&[0, 1, 2, 3].repeat(25));
        let faulty = simulate(&trace, 2, &mut Markov::new(), true, &p, &dctx());
        assert_eq!(faulty.stats.calls, 100);
        assert_eq!(faulty.outcomes.len(), 100);
        assert_eq!(faulty.fates.len(), 100);
        assert_eq!(faulty.blacklisted_slots, 2);
        assert!((faulty.availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn drops_reduce_availability() {
        let spec = FaultSpec {
            p_crc: 1.0,
            p_api_transfer: 1.0,
            ..FaultSpec::default()
        };
        let p = FaultPlan::new(spec, RecoveryPolicy::default(), 5);
        let trace = ids(&[0, 1].repeat(10));
        let ctx = dctx().with_registry(hprc_obs::Registry::new());
        let faulty = simulate(&trace, 2, &mut Lru::new(), false, &p, &ctx);
        assert_eq!(faulty.dropped, 20);
        assert_eq!(faulty.availability(), 0.0);
        assert_eq!(ctx.registry.snapshot().counters["sched.fault.dropped"], 20);
    }

    #[test]
    fn outcomes_replay_identically() {
        let p = plan(0.2, 99);
        let trace = ids(&[0, 1, 2, 0, 2, 1].repeat(30));
        let a = simulate(&trace, 2, &mut Markov::new(), true, &p, &dctx());
        let b = simulate(&trace, 2, &mut Markov::new(), true, &p, &dctx());
        assert_eq!(a, b);
    }
}
