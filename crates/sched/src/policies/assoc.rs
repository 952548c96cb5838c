//! Association-rule prefetching — after the paper's reference [26]
//! (Taher et al., *"Configuration Caching in Adaptive Computing Systems
//! Using Association Rule Mining (ARM)"*).
//!
//! Instead of only the immediate successor (first-order Markov), the
//! predictor mines *co-occurrence within a sliding window*: tasks that
//! appear together soon after task `t` are associated with `t`, whatever
//! their exact order. Rules are `t → u` with support = #windows starting
//! at `t` that contain `u`, and confidence = support / #occurrences of
//! `t`. Prediction returns the highest-confidence consequent above a
//! minimum confidence.

use std::collections::{HashMap, VecDeque};

use crate::cache::{ConfigCache, TaskId};
use crate::policies::Lru;
use crate::policy::Policy;
use hprc_obs::delta::bytes as dbytes;

/// Association-rule predictor with LRU replacement.
#[derive(Debug, Clone)]
pub struct AssociationRule {
    /// Sliding-window length (how far ahead co-occurrence counts).
    window: usize,
    /// Minimum confidence for a rule to fire.
    min_confidence: f64,
    /// Decision latency (seconds).
    decision_latency_s: f64,
    /// Recent accesses (oldest first), at most `window + 1` long.
    recent: VecDeque<TaskId>,
    /// `antecedent -> (consequent -> support)`.
    support: HashMap<TaskId, HashMap<TaskId, u64>>,
    /// `antecedent -> occurrence count`.
    occurrences: HashMap<TaskId, u64>,
    lru: Lru,
}

impl AssociationRule {
    /// Creates the predictor with a co-occurrence window and confidence
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics when `window == 0` or `min_confidence` is outside `[0, 1]`.
    pub fn new(window: usize, min_confidence: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(
            (0.0..=1.0).contains(&min_confidence),
            "confidence is a probability"
        );
        AssociationRule {
            window,
            min_confidence,
            decision_latency_s: 0.0,
            recent: VecDeque::new(),
            support: HashMap::new(),
            occurrences: HashMap::new(),
            lru: Lru::new(),
        }
    }

    /// Sets a nonzero decision latency (mining is not free — the paper's
    /// `T_setup`).
    pub fn with_decision_latency(mut self, seconds: f64) -> Self {
        self.decision_latency_s = seconds;
        self
    }

    /// Confidence of the rule `antecedent -> consequent` learned so far.
    pub fn confidence(&self, antecedent: TaskId, consequent: TaskId) -> f64 {
        let occ = self.occurrences.get(&antecedent).copied().unwrap_or(0);
        if occ == 0 {
            return 0.0;
        }
        let sup = self
            .support
            .get(&antecedent)
            .and_then(|m| m.get(&consequent))
            .copied()
            .unwrap_or(0);
        sup as f64 / occ as f64
    }
}

impl Policy for AssociationRule {
    fn name(&self) -> &'static str {
        "assoc-rule"
    }

    fn decision_latency_s(&self) -> f64 {
        self.decision_latency_s
    }

    fn choose_victim(&mut self, cache: &ConfigCache, task: TaskId, index: usize) -> usize {
        self.lru.choose_victim(cache, task, index)
    }

    fn on_access(&mut self, task: TaskId, slot: usize, index: usize) {
        // Update co-occurrence: `task` is a consequent for every
        // antecedent still inside the window (deduplicated per window by
        // only counting the first sighting: approximate via direct count —
        // repeated consequents inflate support slightly, acceptable for a
        // confidence ranking).
        for &prev in self.recent.iter() {
            if prev != task {
                *self
                    .support
                    .entry(prev)
                    .or_default()
                    .entry(task)
                    .or_insert(0) += 1;
            }
        }
        *self.occurrences.entry(task).or_insert(0) += 1;
        self.recent.push_back(task);
        if self.recent.len() > self.window {
            self.recent.pop_front();
        }
        self.lru.on_access(task, slot, index);
    }

    fn predict_next(&self, current: TaskId) -> Option<TaskId> {
        let rules = self.support.get(&current)?;
        let occ = self.occurrences.get(&current).copied().unwrap_or(0);
        if occ == 0 {
            return None;
        }
        rules
            .iter()
            .map(|(&t, &sup)| (t, sup as f64 / occ as f64))
            .filter(|&(_, conf)| conf >= self.min_confidence)
            // Deterministic argmax: confidence, then lowest task id.
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0 .0.cmp(&a.0 .0)))
            .map(|(t, _)| t)
    }

    fn delta_state(&self) -> Option<Vec<u8>> {
        let mut v = Vec::new();
        // Configuration first (window/threshold/latency distinguish
        // instances in cache keys), then mutable state canonically.
        dbytes::put_u64(&mut v, self.window as u64);
        dbytes::put_f64(&mut v, self.min_confidence);
        dbytes::put_f64(&mut v, self.decision_latency_s);
        dbytes::put_u64(&mut v, self.recent.len() as u64);
        for &t in &self.recent {
            dbytes::put_u64(&mut v, t.0 as u64);
        }
        let mut occ: Vec<(TaskId, u64)> = self.occurrences.iter().map(|(t, c)| (*t, *c)).collect();
        occ.sort_unstable();
        dbytes::put_u64(&mut v, occ.len() as u64);
        for (t, c) in occ {
            dbytes::put_u64(&mut v, t.0 as u64);
            dbytes::put_u64(&mut v, c);
        }
        let mut ants: Vec<&TaskId> = self.support.keys().collect();
        ants.sort_unstable();
        dbytes::put_u64(&mut v, ants.len() as u64);
        for ant in ants {
            dbytes::put_u64(&mut v, ant.0 as u64);
            let mut rows: Vec<(TaskId, u64)> =
                self.support[ant].iter().map(|(t, c)| (*t, *c)).collect();
            rows.sort_unstable();
            dbytes::put_u64(&mut v, rows.len() as u64);
            for (t, c) in rows {
                dbytes::put_u64(&mut v, t.0 as u64);
                dbytes::put_u64(&mut v, c);
            }
        }
        dbytes::put_slice(&mut v, &self.lru.delta_state()?);
        Some(v)
    }

    fn delta_restore(&mut self, state: &[u8]) -> bool {
        let mut pos = 0;
        let (Some(window), Some(min_confidence), Some(latency)) = (
            dbytes::get_u64(state, &mut pos),
            dbytes::get_f64(state, &mut pos),
            dbytes::get_f64(state, &mut pos),
        ) else {
            return false;
        };
        if window == 0 || !(0.0..=1.0).contains(&min_confidence) {
            return false;
        }
        let Some(n_recent) = dbytes::get_u64(state, &mut pos) else {
            return false;
        };
        let mut recent = VecDeque::with_capacity(n_recent as usize);
        for _ in 0..n_recent {
            match dbytes::get_u64(state, &mut pos) {
                Some(t) => recent.push_back(TaskId(t as usize)),
                None => return false,
            }
        }
        let Some(n_occ) = dbytes::get_u64(state, &mut pos) else {
            return false;
        };
        let mut occurrences = HashMap::with_capacity(n_occ as usize);
        for _ in 0..n_occ {
            let (Some(t), Some(c)) = (
                dbytes::get_u64(state, &mut pos),
                dbytes::get_u64(state, &mut pos),
            ) else {
                return false;
            };
            occurrences.insert(TaskId(t as usize), c);
        }
        let Some(n_ants) = dbytes::get_u64(state, &mut pos) else {
            return false;
        };
        let mut support: HashMap<TaskId, HashMap<TaskId, u64>> = HashMap::new();
        for _ in 0..n_ants {
            let (Some(ant), Some(n_rows)) = (
                dbytes::get_u64(state, &mut pos),
                dbytes::get_u64(state, &mut pos),
            ) else {
                return false;
            };
            let mut rows = HashMap::with_capacity(n_rows as usize);
            for _ in 0..n_rows {
                let (Some(t), Some(c)) = (
                    dbytes::get_u64(state, &mut pos),
                    dbytes::get_u64(state, &mut pos),
                ) else {
                    return false;
                };
                rows.insert(TaskId(t as usize), c);
            }
            support.insert(TaskId(ant as usize), rows);
        }
        let Some(lru_len) = dbytes::get_u64(state, &mut pos) else {
            return false;
        };
        let Some(lru_bytes) = state.get(pos..pos + lru_len as usize) else {
            return false;
        };
        let mut lru = Lru::new();
        if !lru.delta_restore(lru_bytes) {
            return false;
        }
        pos += lru_len as usize;
        if pos != state.len() {
            return false;
        }
        self.window = window as usize;
        self.min_confidence = min_confidence;
        self.decision_latency_s = latency;
        self.recent = recent;
        self.occurrences = occurrences;
        self.support = support;
        self.lru = lru;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::simulate;
    use crate::traces::TraceSpec;
    use hprc_fault::FaultPlan;

    #[test]
    fn learns_windowed_association() {
        let mut p = AssociationRule::new(2, 0.3);
        // Pattern A B C repeated: within window 2 after A comes B and C.
        for (i, &t) in [0usize, 1, 2].repeat(20).iter().enumerate() {
            p.on_access(TaskId(t), t % 2, i);
        }
        assert!(p.confidence(TaskId(0), TaskId(1)) > 0.8);
        assert!(p.confidence(TaskId(0), TaskId(2)) > 0.3);
        assert_eq!(p.predict_next(TaskId(0)), Some(TaskId(1)));
    }

    #[test]
    fn no_rule_below_confidence_threshold() {
        let mut p = AssociationRule::new(1, 0.9);
        // Alternating successors: A->B half the time, A->C half the time.
        for (i, &t) in [0usize, 1, 0, 2].repeat(20).iter().enumerate() {
            p.on_access(TaskId(t), 0, i);
        }
        assert!(p.predict_next(TaskId(0)).is_none());
        // Lowering the bar finds the (tied) majority rule.
        let mut p2 = AssociationRule::new(1, 0.3);
        for (i, &t) in [0usize, 1, 0, 2].repeat(20).iter().enumerate() {
            p2.on_access(TaskId(t), 0, i);
        }
        assert!(p2.predict_next(TaskId(0)).is_some());
    }

    #[test]
    fn prefetches_on_looping_workload() {
        // On a strict A-B-C cycle both consequents of each antecedent are
        // equally confident (window 2 sees both), so the tie-broken
        // prediction is right two calls out of three: H -> 2/3. A
        // successor-only Markov beats ARM on strictly ordered traces; ARM
        // earns its keep on unordered co-occurrence (see the next test).
        let trace = TraceSpec::Looping {
            stages: 3,
            n_tasks: 3,
            noise: 0.0,
            len: 300,
        }
        .generate(1);
        let out = simulate(
            &trace,
            2,
            &mut AssociationRule::new(2, 0.5),
            true,
            &FaultPlan::disarmed(),
            &hprc_ctx::ExecCtx::default(),
        );
        assert!(out.hit_ratio() > 0.6, "H = {}", out.hit_ratio());
    }

    #[test]
    fn prefetch_pollution_when_working_set_exceeds_slots() {
        // A documented hazard of speculative configuration: with a 3-task
        // working set over only 2 PRRs, ARM's speculative loads evict
        // entries demand caching would have kept — prefetching can *lose*
        // to plain LRU. (With enough PRRs the effect disappears: see
        // below.)
        let trace = TraceSpec::Phased {
            n_tasks: 8,
            working_set: 3,
            phase_len: 60,
            len: 600,
        }
        .generate(3);
        let plain2 = simulate(
            &trace,
            2,
            &mut Lru::new(),
            false,
            &FaultPlan::disarmed(),
            &hprc_ctx::ExecCtx::default(),
        );
        let arm2 = simulate(
            &trace,
            2,
            &mut AssociationRule::new(3, 0.4),
            true,
            &FaultPlan::disarmed(),
            &hprc_ctx::ExecCtx::default(),
        );
        assert!(
            arm2.stats.hits < plain2.stats.hits,
            "pollution expected: arm {} vs lru {}",
            arm2.stats.hits,
            plain2.stats.hits
        );
        // With 4 slots the working set fits and ARM at least matches LRU.
        let plain4 = simulate(
            &trace,
            4,
            &mut Lru::new(),
            false,
            &FaultPlan::disarmed(),
            &hprc_ctx::ExecCtx::default(),
        );
        let arm4 = simulate(
            &trace,
            4,
            &mut AssociationRule::new(3, 0.4),
            true,
            &FaultPlan::disarmed(),
            &hprc_ctx::ExecCtx::default(),
        );
        assert!(
            arm4.stats.hits >= plain4.stats.hits,
            "arm {} vs lru {}",
            arm4.stats.hits,
            plain4.stats.hits
        );
    }

    #[test]
    fn unknown_antecedent_predicts_nothing() {
        let p = AssociationRule::new(3, 0.1);
        assert_eq!(p.predict_next(TaskId(9)), None);
        assert_eq!(p.confidence(TaskId(9), TaskId(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        AssociationRule::new(0, 0.5);
    }
}
