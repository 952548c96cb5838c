//! Edge cases at the cache/fault/preemption boundary: clearing empty
//! slots, SEU strikes against checkpointed residents, and graceful
//! degradation to pure FRTR once every PRR is blacklisted.

use hprc_ctx::ExecCtx;
use hprc_fault::{FaultPlan, FaultSpec, RecoveryPolicy};
use hprc_sched::{
    simulate, simulate_preemptive, ConfigCache, PreemptCosts, RtTask, StrictPriority, TaskId,
};

fn costs() -> PreemptCosts {
    PreemptCosts {
        t_decision_s: 1e-6,
        t_control_s: 1e-6,
        t_partial_s: 1e-3,
        t_full_s: 10e-3,
        quantum_s: 2e-3,
        port_bytes_per_s: 100e6,
    }
}

#[test]
fn clear_slot_on_already_empty_slot_is_a_stable_noop() {
    let mut cache = ConfigCache::new(3);
    // Never loaded: clearing is a no-op, repeatedly, in and out of range.
    assert_eq!(cache.clear_slot(1), None);
    assert_eq!(cache.clear_slot(1), None);
    assert_eq!(cache.clear_slot(usize::MAX), None);
    // Load-clear-clear: second clear still a no-op, state fully empty.
    cache.load(1, TaskId(7));
    assert_eq!(cache.clear_slot(1), Some(TaskId(7)));
    assert_eq!(cache.clear_slot(1), None);
    assert_eq!(cache.empty_slot(), Some(0));
    assert_eq!(cache.clear(), 0);
}

#[test]
fn seu_evicts_resident_of_a_mid_preemption_job_and_resume_reconfigures() {
    // One PRR: a long background job gets checkpointed out by an urgent
    // arrival. SEUs strike every call, so by the time the background job
    // resumes, its bitstream has been evicted — the resume must charge a
    // fresh configuration (miss), then restore, then complete.
    let long = RtTask {
        task: TaskId(0),
        exec_s: 0.050,
        period_s: 10.0,
        deadline_s: 10.0,
        priority: 9,
        state_bytes: 100_000,
        frames: 1,
        phase_s: 0.0,
    };
    let urgent = RtTask {
        task: TaskId(1),
        exec_s: 0.004,
        period_s: 10.0,
        deadline_s: 10.0,
        priority: 0,
        state_bytes: 100_000,
        frames: 1,
        phase_s: 0.005,
    };
    let spec = FaultSpec {
        p_seu: 1.0,
        ..FaultSpec::default()
    };
    let plan = FaultPlan::new(spec, RecoveryPolicy::default(), 5);
    let out = simulate_preemptive(
        &[long, urgent],
        1,
        &mut StrictPriority::new(),
        &costs(),
        &plan,
        &ExecCtx::default(),
    );
    assert_eq!(out.stats.completed, 2, "{:?}", out.stats);
    assert!(out.stats.preemptions >= 1);
    assert!(out.stats.seu_invalidations >= 1);
    // Every resumed segment had to reconfigure: the SEU wiped residency
    // while the job sat checkpointed.
    let resumed: Vec<_> = out.segments.iter().filter(|s| s.resumed).collect();
    assert!(!resumed.is_empty());
    for seg in &resumed {
        assert!(!seg.hit, "SEU-evicted resident must not hit");
        assert!(seg.config.is_some(), "resume reconfigures after eviction");
        assert!(seg.restore.is_some(), "resume restores the checkpoint");
    }
}

#[test]
fn all_prrs_blacklisted_degrades_to_frtr_without_panicking() {
    // Certain partial-path faults escalate every call; blacklist_after=1
    // blacklists a PRR on its first escalation. With every PRR
    // blacklisted, both engines must keep going on the forced-full
    // (FRTR) path rather than panic.
    let spec = FaultSpec {
        p_crc: 1.0,
        ..FaultSpec::default()
    };
    let policy = RecoveryPolicy {
        blacklist_after: 1,
        ..RecoveryPolicy::default()
    };
    let plan = FaultPlan::new(spec, policy, 9);

    // Run-to-completion loop.
    let trace: Vec<TaskId> = (0..30).map(|i| TaskId(i % 3)).collect();
    let out = simulate(
        &trace,
        2,
        &mut hprc_sched::policies::Lru::new(),
        false,
        &plan,
        &ExecCtx::default(),
    );
    assert_eq!(out.blacklisted_slots, 2, "every PRR ends blacklisted");
    assert_eq!(out.stats.calls, 30);

    // Preemptible engine: same degradation, forced-full segments on the
    // conventional lane, every surviving job completes or drops cleanly.
    let tasks = [
        RtTask {
            task: TaskId(0),
            exec_s: 0.004,
            period_s: 0.05,
            deadline_s: 0.05,
            priority: 0,
            state_bytes: 50_000,
            frames: 10,
            phase_s: 0.0,
        },
        RtTask {
            task: TaskId(1),
            exec_s: 0.004,
            period_s: 0.05,
            deadline_s: 0.05,
            priority: 1,
            state_bytes: 50_000,
            frames: 10,
            phase_s: 0.01,
        },
    ];
    let out = simulate_preemptive(
        &tasks,
        2,
        &mut StrictPriority::new(),
        &costs(),
        &plan,
        &ExecCtx::default(),
    );
    assert_eq!(
        out.stats.completed + out.stats.dropped,
        out.stats.jobs,
        "{:?}",
        out.stats
    );
    assert!(
        out.stats.forced_full > 0,
        "blacklisted device must force full reconfigurations: {:?}",
        out.stats
    );
    // Once everything is blacklisted, forced-full dispatches all use the
    // conventional lane (slot 0).
    let forced: Vec<_> = out.segments.iter().filter(|s| s.forced_full).collect();
    assert!(!forced.is_empty());
    assert!(forced.iter().all(|s| !s.hit));
}
