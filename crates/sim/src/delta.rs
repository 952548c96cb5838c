//! Whole-run memoization of executor reports.
//!
//! A sweep re-dispatching an identical `(node, call sequence, fault
//! plan)` triple — the warm half of a bench pass, a re-rendered
//! artifact, the `summary` experiment re-visiting a panel — re-derives
//! a report the process already computed. When the context carries an
//! enabled [`hprc_obs::DeltaCache`], the executors
//! ([`crate::executor::run_frtr`], [`crate::executor::run_prtr`],
//! [`crate::preempt::run_preemptive`]) memoize their finished
//! [`ExecutionReport`]s under a full-input key and replay them as one
//! clone.
//!
//! Two gates keep this sound:
//!
//! * **store** whenever the cache is enabled and the steady-state fast
//!   path is on — the report is a pure function of the key, whether or
//!   not the run was instrumented;
//! * **replay** only into *quiet* contexts (no live registry, no live
//!   journal): an instrumented run must lay out its per-call counter,
//!   histogram, and journal records, which a cloned report cannot
//!   carry. The `run_*_reference` oracles (`enable_jump == false`)
//!   never store nor replay, so fast-vs-reference equivalence tests
//!   keep their teeth.
//!
//! Keys serialize every input the run reads: a domain tag, the node
//! calibration (exact `Debug` of every `f64`), the effective (armed)
//! fault plan, and the packed call or segment sequence. Reports are
//! held as `Arc<ExecutionReport>` in the same byte-bounded store the
//! scheduler's skeletons live in.

use std::sync::Arc;

use hprc_ctx::ExecCtx;
use hprc_fault::FaultPlan;
use hprc_obs::delta::bytes as dbytes;
use hprc_obs::DeltaCache;

use crate::error::SimError;
use crate::executor::ExecutionReport;
use crate::node::NodeConfig;
use crate::preempt::PreemptSegment;
use crate::task::{PrtrCall, TaskCall};

/// Runs `render` through the whole-run memo. With the cache enabled
/// and the fast path on, the report is stored under `key()` — and a
/// quiet context (no live registry, no live journal) replays a stored
/// report as one clone instead of rendering. An instrumented run must
/// lay out its per-call counter, histogram, and journal records, which
/// a cloned report cannot carry.
pub(crate) fn memoized(
    ctx: &ExecCtx,
    fast: bool,
    key: impl FnOnce() -> Vec<u8>,
    n_calls: usize,
    render: impl FnOnce() -> Result<ExecutionReport, SimError>,
) -> Result<ExecutionReport, SimError> {
    if !fast || !ctx.delta.is_enabled() {
        return render();
    }
    let key = key();
    let replayable = !ctx.registry.is_enabled() && !ctx.journal.is_enabled();
    if replayable {
        if let Some(r) = fetch(&ctx.delta, &key) {
            ctx.delta.note_full_hit(n_calls as u64);
            return Ok((*r).clone());
        }
    }
    let report = render()?;
    store(&ctx.delta, key, &report);
    if replayable {
        ctx.delta.note_miss(n_calls as u64);
    }
    Ok(report)
}

/// A disarmed plan keys as a fault-free run: it renders one.
fn key_header(k: &mut Vec<u8>, domain: &str, node: &NodeConfig, plan: Option<&FaultPlan>) {
    dbytes::put_str(k, domain);
    dbytes::put_str(k, &format!("{node:?}"));
    match plan.filter(|p| p.armed()) {
        Some(p) => dbytes::put_str(k, &format!("{p:?}")),
        None => dbytes::put_u64(k, 0),
    }
}

/// Full-input key of an FRTR run.
pub(crate) fn frtr_key(node: &NodeConfig, calls: &[TaskCall], plan: &FaultPlan) -> Vec<u8> {
    let mut k = Vec::with_capacity(128 + calls.len() * 32);
    key_header(&mut k, "sim.frtr", node, Some(plan));
    dbytes::put_u64(&mut k, calls.len() as u64);
    for c in calls {
        dbytes::put_str(&mut k, c.name.as_str());
        dbytes::put_u64(&mut k, c.bytes_in);
        dbytes::put_u64(&mut k, c.bytes_out);
    }
    k
}

/// Full-input key of a PRTR run.
pub(crate) fn prtr_key(node: &NodeConfig, calls: &[PrtrCall], plan: &FaultPlan) -> Vec<u8> {
    let mut k = Vec::with_capacity(128 + calls.len() * 40);
    key_header(&mut k, "sim.prtr", node, Some(plan));
    dbytes::put_u64(&mut k, calls.len() as u64);
    for c in calls {
        dbytes::put_str(&mut k, c.task.name.as_str());
        dbytes::put_u64(&mut k, c.task.bytes_in);
        dbytes::put_u64(&mut k, c.task.bytes_out);
        dbytes::put_u64(&mut k, ((c.hit as u64) << 32) | c.slot as u64);
    }
    k
}

fn put_opt_window(k: &mut Vec<u8>, w: Option<(crate::time::SimTime, crate::time::SimTime)>) {
    match w {
        Some((s, e)) => {
            dbytes::put_u64(k, 1);
            dbytes::put_u64(k, s.0);
            dbytes::put_u64(k, e.0);
        }
        None => dbytes::put_u64(k, 0),
    }
}

/// Full-input key of a preemptive schedule rendering.
pub(crate) fn preempt_key(node: &NodeConfig, segments: &[PreemptSegment]) -> Vec<u8> {
    let mut k = Vec::with_capacity(128 + segments.len() * 128);
    key_header(&mut k, "sim.preempt", node, None);
    dbytes::put_u64(&mut k, segments.len() as u64);
    for s in segments {
        dbytes::put_str(&mut k, s.name.as_str());
        dbytes::put_u64(&mut k, s.slot as u64);
        dbytes::put_u64(&mut k, s.decision_start.0);
        dbytes::put_u64(&mut k, s.decision_end.0);
        put_opt_window(&mut k, s.config);
        dbytes::put_u64(&mut k, s.config_clean.0);
        put_opt_window(&mut k, s.restore);
        dbytes::put_u64(&mut k, s.restore_clean.0);
        dbytes::put_u64(&mut k, s.control_start.0);
        dbytes::put_u64(&mut k, s.control_end.0);
        dbytes::put_u64(&mut k, s.exec_start.0);
        dbytes::put_u64(&mut k, s.exec_end.0);
        put_opt_window(&mut k, s.save);
        let flags = (s.hit as u64)
            | (s.forced_full as u64) << 1
            | (s.resumed as u64) << 2
            | (s.preempted as u64) << 3
            | (s.dropped as u64) << 4
            | (s.clean as u64) << 5;
        dbytes::put_u64(&mut k, flags);
    }
    k
}

/// Looks a memoized report up (counts one lookup when the cache is
/// enabled).
fn fetch(delta: &DeltaCache, key: &[u8]) -> Option<Arc<ExecutionReport>> {
    delta.get(key).and_then(|v| v.downcast().ok())
}

/// Stores a finished report under `key`.
fn store(delta: &DeltaCache, key: Vec<u8>, report: &ExecutionReport) {
    let bytes = 128
        + report.calls.len() as u64 * std::mem::size_of::<crate::executor::CallTiming>() as u64
        + report.timeline.n_items() as u64 * 64;
    delta.put(key, Arc::new(report.clone()), bytes);
}

#[cfg(test)]
mod tests {
    use hprc_ctx::ExecCtx;
    use hprc_fpga::floorplan::Floorplan;
    use hprc_obs::{DeltaCache, Registry};

    use crate::executor::{run_frtr, run_prtr, run_prtr_reference};
    use crate::node::NodeConfig;
    use crate::task::{PrtrCall, TaskCall};
    use hprc_fault::FaultPlan;

    fn node() -> NodeConfig {
        NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr())
    }

    fn calls(node: &NodeConfig, n: usize) -> Vec<PrtrCall> {
        (0..n)
            .map(|i| PrtrCall {
                task: TaskCall::with_task_time(format!("t{}", i % 3), node, node.t_prtr_s()),
                hit: i % 4 == 3,
                slot: i % node.n_prrs,
            })
            .collect()
    }

    #[test]
    fn quiet_rerun_is_a_whole_run_hit() {
        let node = node();
        let calls = calls(&node, 60);
        let tasks: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
        let delta = DeltaCache::new(1 << 22);
        let ctx = ExecCtx::default().with_delta(delta.clone());
        let plain = ExecCtx::default();

        let first_p = run_prtr(&node, &calls, &FaultPlan::disarmed(), &ctx).unwrap();
        let first_f = run_frtr(&node, &tasks, &FaultPlan::disarmed(), &ctx).unwrap();
        assert_eq!(delta.account().unwrap().misses, 2);
        let second_p = run_prtr(&node, &calls, &FaultPlan::disarmed(), &ctx).unwrap();
        let second_f = run_frtr(&node, &tasks, &FaultPlan::disarmed(), &ctx).unwrap();
        let acct = delta.account().unwrap();
        assert_eq!(acct.full_hits, 2);
        assert_eq!(acct.calls_replayed, 120);

        assert_eq!(first_p, second_p);
        assert_eq!(first_f, second_f);
        assert_eq!(
            first_p,
            run_prtr(&node, &calls, &FaultPlan::disarmed(), &plain).unwrap()
        );
        assert_eq!(
            first_f,
            run_frtr(&node, &tasks, &FaultPlan::disarmed(), &plain).unwrap()
        );
    }

    #[test]
    fn instrumented_runs_store_but_never_replay() {
        let node = node();
        let calls = calls(&node, 40);
        let delta = DeltaCache::new(1 << 22);
        let reg = Registry::new();
        let ictx = ExecCtx::default()
            .with_delta(delta.clone())
            .with_registry(reg.clone());

        let a = run_prtr(&node, &calls, &FaultPlan::disarmed(), &ictx).unwrap();
        let snap_once = reg.snapshot();
        let b = run_prtr(&node, &calls, &FaultPlan::disarmed(), &ictx).unwrap();
        assert_eq!(a, b);
        // Both instrumented runs laid their records out longhand.
        assert_eq!(delta.account().unwrap().full_hits, 0);
        assert_eq!(
            reg.snapshot().counters["sim.prtr.calls"],
            2 * snap_once.counters["sim.prtr.calls"]
        );

        // A quiet run replays what the instrumented run stored.
        let qctx = ExecCtx::default().with_delta(delta.clone());
        assert_eq!(
            a,
            run_prtr(&node, &calls, &FaultPlan::disarmed(), &qctx).unwrap()
        );
        assert_eq!(delta.account().unwrap().full_hits, 1);
    }

    #[test]
    fn reference_runs_never_touch_the_memo() {
        let node = node();
        let calls = calls(&node, 40);
        let delta = DeltaCache::new(1 << 22);
        let ctx = ExecCtx::default().with_delta(delta.clone());
        let a = run_prtr_reference(&node, &calls, &FaultPlan::disarmed(), &ctx).unwrap();
        let b = run_prtr_reference(&node, &calls, &FaultPlan::disarmed(), &ctx).unwrap();
        assert_eq!(a, b);
        let acct = delta.account().unwrap();
        assert_eq!(acct.lookups + acct.stored, 0);
    }

    #[test]
    fn distinct_inputs_key_apart() {
        let node = node();
        let calls_a = calls(&node, 30);
        let mut calls_b = calls_a.clone();
        calls_b[17].hit = !calls_b[17].hit;
        let delta = DeltaCache::new(1 << 22);
        let ctx = ExecCtx::default().with_delta(delta.clone());
        let a = run_prtr(&node, &calls_a, &FaultPlan::disarmed(), &ctx).unwrap();
        let b = run_prtr(&node, &calls_b, &FaultPlan::disarmed(), &ctx).unwrap();
        assert_ne!(a, b);
        assert_eq!(delta.account().unwrap().misses, 2);
        assert_eq!(
            a,
            run_prtr(&node, &calls_a, &FaultPlan::disarmed(), &ExecCtx::default()).unwrap()
        );
        assert_eq!(
            b,
            run_prtr(&node, &calls_b, &FaultPlan::disarmed(), &ExecCtx::default()).unwrap()
        );
    }
}
