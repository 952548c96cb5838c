//! Renderer for preemptive schedules: turns the explicit windows the
//! `hprc-sched` preemptible engine computed into the same
//! [`ExecutionReport`] the run-to-completion executors produce —
//! timeline events (including [`EventKind::Preempt`] context saves and
//! [`EventKind::Restore`] write-backs), per-dispatch timings, metrics,
//! and causal journal spans with `preempt`/`save`/`restore` flow links.
//!
//! Unlike [`run_frtr`](crate::executor::run_frtr)/[`run_prtr`](crate::executor::run_prtr),
//! the timing here is *given* (the engine already resolved contention
//! and preemption), so the renderer is a pure, time-translation-
//! invariant function of each segment's shape. That makes the
//! steady-state fast path simpler and exact: a segment's key is its
//! window layout relative to its own decision start plus the gap to the
//! previous segment, salted by its preemption/fault shape — equal keys
//! over a whole period imply the rendered output repeats verbatim up to
//! a constant shift, so the closed-form jump (RLE timeline block,
//! shifted timings, bulk metrics, [`hprc_obs::Journal::replay_cycle`])
//! is bit-identical to the per-segment path. [`run_preemptive_reference`]
//! is the per-segment oracle, exactly as for the other executors.
//!
//! Journal causality: each task gets one stable `ctx:{name}` anchor
//! span (its host-side context buffer), opened before any segment and
//! closed after the last. A checkpoint links `execute → save` with kind
//! `preempt` and `save → ctx:{name}` with kind `save`; a resume links
//! `ctx:{name} → restore` with kind `restore` and `restore → execute`
//! with kind `activate`. Every link is either intra-segment or touches
//! a stable out-of-block anchor id, so cycle replay stays exact.

use std::collections::HashMap;

use hprc_ctx::{ExecCtx, Symbol};
use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::executor::{
    publish, CallTiming, ExecutionReport, Render, SteadyState, L_CFG, L_CTL, L_DEC, L_FULL, L_RCV,
    L_RES, L_SAV,
};
use crate::node::NodeConfig;
use crate::time::{SimDuration, SimTime};
use crate::trace::{EventKind, Lane};

/// One dispatch of one task onto one PRR, with every window already
/// resolved by the scheduler (absolute simulation times). Transfer
/// windows cover their whole fault chain; the `*_clean` durations mark
/// the nominal prefix, the excess renders as [`EventKind::Recovery`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreemptSegment {
    /// Task name (interned).
    pub name: Symbol,
    /// PRR slot executed on.
    pub slot: usize,
    /// Decision window start.
    pub decision_start: SimTime,
    /// Decision window end.
    pub decision_end: SimTime,
    /// Configuration transfer window (absent on a hit).
    pub config: Option<(SimTime, SimTime)>,
    /// Clean prefix of `config`.
    pub config_clean: SimDuration,
    /// Context write-back window (present when `resumed`).
    pub restore: Option<(SimTime, SimTime)>,
    /// Clean prefix of `restore`.
    pub restore_clean: SimDuration,
    /// Control window start (zero-length when `dropped`).
    pub control_start: SimTime,
    /// Control window end.
    pub control_end: SimTime,
    /// Execution window start.
    pub exec_start: SimTime,
    /// Execution window end (the checkpoint instant when `preempted`;
    /// equals `exec_start` when `dropped`).
    pub exec_end: SimTime,
    /// Context readback window (present when `preempted`).
    pub save: Option<(SimTime, SimTime)>,
    /// The configuration was resident: no transfer charged.
    pub hit: bool,
    /// The transfer ran the full-reconfiguration chain (blacklisting).
    pub forced_full: bool,
    /// This segment resumes a previously checkpointed job.
    pub resumed: bool,
    /// This segment ends in a checkpoint.
    pub preempted: bool,
    /// An unrecoverable fault killed the job in this segment.
    pub dropped: bool,
    /// No recovery excess anywhere in the segment.
    pub clean: bool,
}

impl PreemptSegment {
    /// Instant the segment's last window closes.
    pub fn end(&self) -> SimTime {
        let mut end = self.exec_end.max(self.control_end);
        if let Some((_, e)) = self.config {
            end = end.max(e);
        }
        if let Some((_, e)) = self.restore {
            end = end.max(e);
        }
        if let Some((_, e)) = self.save {
            end = end.max(e);
        }
        end.max(self.decision_end)
    }
}

/// Everything that determines a segment's rendered output up to a time
/// translation: its window layout relative to its own decision start,
/// the gap to the previous segment's decision start, the previous
/// segment's exec end relative to this decision start (the marginal
/// latency sample reads it), and its shape flags. Timing is given, so
/// no further carry-over state is needed — a gap match *is* the
/// adjacency proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SegKey {
    name: Symbol,
    slot: usize,
    gap_ns: u64,
    prev_exec_rel: i64,
    dec_ns: u64,
    config: Option<(u64, u64, u64)>,
    restore: Option<(u64, u64, u64)>,
    control: (u64, u64),
    exec: (u64, u64),
    save: Option<(u64, u64)>,
    flags: u8,
}

fn seg_key(seg: &PreemptSegment, prev_start: SimTime, prev_exec_end: SimTime) -> SegKey {
    let base = seg.decision_start.0;
    let rel = |t: SimTime| t.0 - base;
    let win = |(s, e): (SimTime, SimTime)| (rel(s), e.0 - s.0);
    SegKey {
        name: seg.name,
        slot: seg.slot,
        gap_ns: base - prev_start.0,
        prev_exec_rel: base as i64 - prev_exec_end.0 as i64,
        dec_ns: seg.decision_end.0 - base,
        config: seg.config.map(|w| {
            let (s, l) = win(w);
            (s, l, seg.config_clean.0)
        }),
        restore: seg.restore.map(|w| {
            let (s, l) = win(w);
            (s, l, seg.restore_clean.0)
        }),
        control: (
            rel(seg.control_start),
            seg.control_end.0 - seg.control_start.0,
        ),
        exec: (rel(seg.exec_start), seg.exec_end.0 - seg.exec_start.0),
        save: seg.save.map(win),
        flags: (seg.hit as u8)
            | (seg.forced_full as u8) << 1
            | (seg.resumed as u8) << 2
            | (seg.preempted as u8) << 3
            | (seg.dropped as u8) << 4
            | (seg.clean as u8) << 5,
    }
}

/// Renders a preemptive schedule with the steady-state fast path
/// enabled. See the [module docs](self) for the event and journal
/// vocabulary; totals, timings, metrics, and journal bytes are
/// bit-identical to [`run_preemptive_reference`].
pub fn run_preemptive(
    node: &NodeConfig,
    segments: &[PreemptSegment],
    ctx: &ExecCtx,
) -> Result<ExecutionReport, SimError> {
    run_preemptive_impl(node, segments, ctx, true)
}

/// The pure per-segment renderer: the equivalence oracle for
/// [`run_preemptive`].
pub fn run_preemptive_reference(
    node: &NodeConfig,
    segments: &[PreemptSegment],
    ctx: &ExecCtx,
) -> Result<ExecutionReport, SimError> {
    run_preemptive_impl(node, segments, ctx, false)
}

fn run_preemptive_impl(
    node: &NodeConfig,
    segments: &[PreemptSegment],
    ctx: &ExecCtx,
    enable_jump: bool,
) -> Result<ExecutionReport, SimError> {
    if segments.is_empty() {
        return Err(SimError::InvalidRun("empty segment sequence".into()));
    }
    if let Some(bad) = segments.iter().find(|s| s.slot >= node.n_prrs) {
        return Err(SimError::InvalidRun(format!(
            "slot {} out of range for {} PRRs",
            bad.slot, node.n_prrs
        )));
    }
    // The rendered report is a pure function of (node, segments), which
    // keys the whole-run memo (see `crate::delta`).
    let key = || crate::delta::preempt_key(node, segments);
    crate::delta::memoized(ctx, enable_jump, key, segments.len(), || {
        Ok(render(segments, ctx, enable_jump))
    })
}

fn render(segments: &[PreemptSegment], ctx: &ExecCtx, enable_jump: bool) -> ExecutionReport {
    // Tallies: hits, configuration transfers, context saves, context
    // restores, drops, forced-full transfers, successful configurations.
    const HITS: usize = 0;
    const TRANSFERS: usize = 1;
    const SAVES: usize = 2;
    const RESTORES: usize = 3;
    const DROPPED: usize = 4;
    const FORCED: usize = 5;
    const CONFIGS: usize = 6;

    let registry = &ctx.registry;
    let _span = registry.span("sim.run_preemptive");
    let j = &ctx.journal;
    let tid_host = Lane::Host.chrome_tid();
    let tid_cfg = Lane::ConfigPort.chrome_tid();
    let jrun = j.enter("sim.run_preemptive", 0, tid_host);

    // One stable anchor span per task: the host-side context buffer the
    // checkpoint flows dock at. Opened before any segment (outside any
    // jump window), so their ids survive cycle replay untouched.
    let mut anchors: HashMap<Symbol, Option<hprc_obs::SpanId>> = HashMap::new();
    let mut anchor_order: Vec<Symbol> = Vec::new();
    for seg in segments {
        if let std::collections::hash_map::Entry::Vacant(slot) = anchors.entry(seg.name) {
            // Journal names are `'static`: intern the label, and only
            // when it will be recorded.
            slot.insert(if j.is_enabled() {
                let label = Symbol::intern(&format!("ctx:{}", seg.name.as_str()));
                j.open(label.as_str(), jrun, 0, tid_host)
            } else {
                None
            });
            anchor_order.push(seg.name);
        }
    }

    let mut steady: SteadyState<SegKey, (), 7> = SteadyState::new(
        enable_jump,
        segments.len(),
        |i| match i.checked_sub(1).map(|p| &segments[p]) {
            Some(prev) => seg_key(&segments[i], prev.decision_start, prev.exec_end),
            None => seg_key(&segments[i], SimTime::ZERO, SimTime::ZERO),
        },
        |i| segments[i].clean,
    );
    let mut out = Render::<7>::new(ctx, "sim.preempt.segment_latency_s", segments.len());

    let mut i = 0usize;
    while i < segments.len() {
        // The first segment's key is relative to a stand-in predecessor
        // at t = 0, so it never anchors a period.
        if i >= 1 {
            let anchor = segments[i].decision_start;
            if let Some((jumped, _)) = steady.jump(i, (), anchor, &mut out) {
                i += jumped;
                continue;
            }
        }

        let seg = &segments[i];
        let jcall = j.open(seg.name.as_str(), jrun, seg.decision_start.0, tid_host);
        let jdec = j.event("decide", jcall, seg.decision_start.0, tid_host);
        out.timeline.push(
            Lane::Host,
            EventKind::Decision,
            out.labels.get(L_DEC, seg.name, 0),
            seg.decision_start,
            seg.decision_end,
        );

        let mut jcfg = None;
        if let Some((cs, ce)) = seg.config {
            jcfg = j.event("configure", jcall, cs.0, tid_cfg);
            j.flow(jdec, jcfg, "hide");
            let clean_end = (cs + seg.config_clean).min(ce);
            let (kind, tag) = if seg.forced_full {
                (EventKind::FullConfig, L_FULL)
            } else {
                (EventKind::PartialConfig, L_CFG)
            };
            out.timeline.push(
                Lane::ConfigPort,
                kind,
                out.labels.get(tag, seg.name, seg.slot),
                cs,
                clean_end,
            );
            out.timeline.push(
                Lane::ConfigPort,
                EventKind::Recovery,
                out.labels.get(L_RCV, seg.name, 0),
                clean_end,
                ce,
            );
            out.tally[TRANSFERS] += 1;
            out.tally[CONFIGS] += !seg.dropped as u64;
        }

        let mut jres = None;
        if let Some((rs, re)) = seg.restore {
            jres = j.event("restore", jcall, rs.0, tid_cfg);
            j.flow(anchors[&seg.name], jres, "restore");
            let clean_end = (rs + seg.restore_clean).min(re);
            out.timeline.push(
                Lane::ConfigPort,
                EventKind::Restore,
                out.labels.get(L_RES, seg.name, seg.slot),
                rs,
                clean_end,
            );
            out.timeline.push(
                Lane::ConfigPort,
                EventKind::Recovery,
                out.labels.get(L_RCV, seg.name, 0),
                clean_end,
                re,
            );
            out.tally[RESTORES] += 1;
        }

        out.timeline.push(
            Lane::Host,
            EventKind::Control,
            out.labels.get(L_CTL, seg.name, 0),
            seg.control_start,
            seg.control_end,
        );
        out.timeline.push(
            Lane::Prr(seg.slot),
            EventKind::Exec,
            seg.name,
            seg.exec_start,
            seg.exec_end,
        );
        let jexec = if seg.dropped {
            None
        } else {
            let e = j.event(
                "execute",
                jcall,
                seg.exec_start.0,
                Lane::Prr(seg.slot).chrome_tid(),
            );
            if jres.is_some() {
                j.flow(jres, e, "activate");
            } else if jcfg.is_some() {
                j.flow(jcfg, e, "activate");
            } else {
                j.flow(jdec, e, "hit");
            }
            e
        };

        if let Some((ss, se)) = seg.save {
            let jsave = j.event("save", jcall, ss.0, tid_cfg);
            j.flow(jexec, jsave, "preempt");
            j.flow(jsave, anchors[&seg.name], "save");
            out.timeline.push(
                Lane::ConfigPort,
                EventKind::Preempt,
                out.labels.get(L_SAV, seg.name, seg.slot),
                ss,
                se,
            );
            out.tally[SAVES] += 1;
        }

        out.tally[HITS] += seg.hit as u64;
        out.tally[DROPPED] += seg.dropped as u64;
        out.tally[FORCED] += seg.forced_full as u64;
        out.push_timing(CallTiming {
            name: seg.name,
            hit: seg.hit,
            config_start: seg.config.map(|w| w.0),
            config_end: seg.config.map(|w| w.1),
            exec_start: seg.exec_start,
            exec_end: seg.exec_end,
        });
        j.close(jcall, seg.end().0);
        i += 1;
    }

    let end = out.timeline.span_end();
    for name in anchor_order {
        j.close(anchors[&name], end.0);
    }
    j.exit(jrun, end.0);
    let n = segments.len() as u64;
    let t = out.tally;
    publish(
        registry,
        &[
            ("sim.preempt.segments", n),
            ("sim.preempt.hits", t[HITS]),
            ("sim.preempt.misses", n - t[HITS]),
            ("sim.preempt.configs", t[TRANSFERS]),
            ("sim.preempt.saves", t[SAVES]),
            ("sim.preempt.restores", t[RESTORES]),
            ("sim.preempt.drops", t[DROPPED]),
            ("sim.preempt.forced_full", t[FORCED]),
        ],
    );
    out.into_report(
        registry,
        "sim.preempt",
        end - SimTime::ZERO,
        t[CONFIGS],
        t[DROPPED],
    )
}
