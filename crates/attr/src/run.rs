//! Per-run derived observables and the `<id>.attr.json` report schema.

use hprc_model::params::ModelParams;
use hprc_model::speedup::asymptotic_speedup;
use hprc_obs::Registry;
use hprc_sim::executor::ExecutionReport;
use serde::{Deserialize, Serialize};

use crate::buckets::Buckets;

/// Wall-clock attribution of one executed run (FRTR or PRTR): the six
/// exclusive buckets in seconds and as fractions of the span, plus the
/// run-level observables derived from them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunAttribution {
    /// `"frtr"` or `"prtr"` (free-form label; callers name the run).
    pub mode: String,
    /// End of the run, seconds (the buckets sum to exactly this).
    pub span_s: f64,
    /// Task execution (excluding overlapped configuration), seconds.
    pub exec_s: f64,
    /// Configuration hidden behind execution, seconds.
    pub hidden_config_s: f64,
    /// Configuration exposed on the critical path, seconds.
    pub visible_config_s: f64,
    /// Exposed decision time, seconds.
    pub decision_s: f64,
    /// Exposed transfer-of-control time, seconds.
    pub control_s: f64,
    /// Idle/stall time, seconds.
    pub idle_s: f64,
    /// Total configuration-port busy time (hidden + visible), seconds.
    pub total_config_s: f64,
    /// `hidden_config / total_config`; `None` when the run performed no
    /// configuration (serializes as `null`).
    pub hiding_efficiency: Option<f64>,
    /// Number of task calls executed.
    pub n_calls: u64,
    /// Number of (re-)configurations performed.
    pub n_config: u64,
    /// `1 - n_config / n_calls`: the hit ratio the run actually
    /// realized (0 under FRTR, the cache's measured `H` under PRTR).
    pub effective_hit_ratio: f64,
}

/// Nanoseconds → seconds, the exact inverse of `SimTime::as_secs_f64`.
fn s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

impl RunAttribution {
    /// Attributes one execution report. The bucket identity is
    /// machine-checked ([`Buckets::checked_from_timeline`]).
    pub fn from_report(mode: impl Into<String>, report: &ExecutionReport) -> RunAttribution {
        let b = Buckets::checked_from_timeline(&report.timeline);
        let n_calls = report.calls.len() as u64;
        RunAttribution {
            mode: mode.into(),
            span_s: s(report.timeline.span_end().0),
            exec_s: s(b.exec_ns),
            hidden_config_s: s(b.hidden_config_ns),
            visible_config_s: s(b.visible_config_ns),
            decision_s: s(b.decision_ns),
            control_s: s(b.control_ns),
            idle_s: s(b.idle_ns),
            total_config_s: s(b.total_config_ns()),
            hiding_efficiency: b.hiding_efficiency(),
            n_calls,
            n_config: report.n_config,
            effective_hit_ratio: if n_calls == 0 {
                0.0
            } else {
                1.0 - report.n_config as f64 / n_calls as f64
            },
        }
    }

    /// Records the buckets and derived observables as gauges under
    /// `{prefix}.attr.*` (no-op on a disabled registry).
    pub fn record(&self, registry: &Registry, prefix: &str) {
        if !registry.is_enabled() {
            return;
        }
        let g = |name: &str, v: f64| registry.gauge(&format!("{prefix}.attr.{name}")).set(v);
        g("span_s", self.span_s);
        g("exec_s", self.exec_s);
        g("hidden_config_s", self.hidden_config_s);
        g("visible_config_s", self.visible_config_s);
        g("decision_s", self.decision_s);
        g("control_s", self.control_s);
        g("idle_s", self.idle_s);
        if let Some(h) = self.hiding_efficiency {
            g("hiding_efficiency", h);
        }
        g("effective_hit_ratio", self.effective_hit_ratio);
    }

    /// The six buckets as `(label, seconds, fraction-of-span)` rows, in
    /// rendering order.
    pub fn rows(&self) -> [(&'static str, f64, f64); 6] {
        let frac = |v: f64| {
            if self.span_s > 0.0 {
                v / self.span_s
            } else {
                0.0
            }
        };
        [
            ("exec", self.exec_s, frac(self.exec_s)),
            (
                "config hidden",
                self.hidden_config_s,
                frac(self.hidden_config_s),
            ),
            (
                "config visible",
                self.visible_config_s,
                frac(self.visible_config_s),
            ),
            ("decision", self.decision_s, frac(self.decision_s)),
            ("control", self.control_s, frac(self.control_s)),
            ("idle", self.idle_s, frac(self.idle_s)),
        ]
    }
}

/// Measured speedup against the closed-form asymptote of equation (7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundGap {
    /// Speedup measured on the simulator (FRTR span / PRTR span).
    pub speedup_sim: f64,
    /// Equation (7)'s `S∞` at the equivalent model parameters.
    pub s_asymptotic: f64,
    /// `S∞ − speedup_sim` (non-negative up to second-order simulator
    /// effects: shared channels, ICAP serialization, the O(1/n) cold
    /// start).
    pub bound_gap: f64,
    /// `bound_gap / S∞` — the fraction of the analytical headroom the
    /// run left on the table.
    pub bound_gap_frac: f64,
    /// Whether the paper's `S∞ ≤ 2` long-task bound applies
    /// (`X_task ≥ 1`).
    pub long_task_bound_active: bool,
}

impl BoundGap {
    /// Evaluates the gap between a measured speedup and equation (7) at
    /// `params`.
    pub fn new(params: &ModelParams, speedup_sim: f64) -> BoundGap {
        let s_inf = asymptotic_speedup(params);
        BoundGap {
            speedup_sim,
            s_asymptotic: s_inf,
            bound_gap: s_inf - speedup_sim,
            bound_gap_frac: if s_inf > 0.0 && s_inf.is_finite() {
                (s_inf - speedup_sim) / s_inf
            } else {
                0.0
            },
            long_task_bound_active: params.times.x_task >= 1.0,
        }
    }
}

/// The `<id>.attr.json` artifact: a paired FRTR/PRTR attribution at one
/// operating point plus the measured-vs-analytical bound gap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributionReport {
    /// Artifact schema version (bump on breaking change).
    pub schema_version: u32,
    /// Experiment id the attribution belongs to.
    pub id: String,
    /// Normalized task time of the operating point.
    pub x_task: f64,
    /// Normalized partial-configuration time of the platform.
    pub x_prtr: f64,
    /// Hit ratio the model was evaluated at (the measured `H`).
    pub hit_ratio: f64,
    /// FRTR run attribution.
    pub frtr: RunAttribution,
    /// PRTR run attribution.
    pub prtr: RunAttribution,
    /// Bound-gap analysis at this operating point.
    pub gap: BoundGap,
}

impl AttributionReport {
    /// Current schema version of the `.attr.json` artifact.
    pub const SCHEMA_VERSION: u32 = 1;

    /// Builds the paired attribution for one operating point. `params`
    /// must describe the same point the two reports executed
    /// (`model_params_for` in `hprc-exp` builds it from the node).
    pub fn new(
        id: impl Into<String>,
        params: &ModelParams,
        frtr: &ExecutionReport,
        prtr: &ExecutionReport,
    ) -> AttributionReport {
        let speedup_sim = frtr.total_s() / prtr.total_s();
        AttributionReport {
            schema_version: Self::SCHEMA_VERSION,
            id: id.into(),
            x_task: params.times.x_task,
            x_prtr: params.times.x_prtr,
            hit_ratio: params.hit_ratio,
            frtr: RunAttribution::from_report("frtr", frtr),
            prtr: RunAttribution::from_report("prtr", prtr),
            gap: BoundGap::new(params, speedup_sim),
        }
    }

    /// A compact fixed-width text table of the two runs' buckets plus
    /// the derived observables — folded into experiment report bodies.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>12} {:>7} {:>12} {:>7}\n",
            "bucket", "FRTR (ms)", "%", "PRTR (ms)", "%"
        ));
        for ((label, f_s, f_frac), (_, p_s, p_frac)) in
            self.frtr.rows().iter().zip(self.prtr.rows().iter())
        {
            out.push_str(&format!(
                "{:<16} {:>12.3} {:>6.1}% {:>12.3} {:>6.1}%\n",
                label,
                f_s * 1e3,
                f_frac * 100.0,
                p_s * 1e3,
                p_frac * 100.0
            ));
        }
        out.push_str(&format!(
            "{:<16} {:>12.3} {:>6.1}% {:>12.3} {:>6.1}%\n",
            "span",
            self.frtr.span_s * 1e3,
            100.0,
            self.prtr.span_s * 1e3,
            100.0
        ));
        let eff = |h: Option<f64>| match h {
            Some(h) => format!("{:.1}%", h * 100.0),
            None => "n/a".into(),
        };
        out.push_str(&format!(
            "hiding efficiency: FRTR {}, PRTR {}; effective H = {:.3};\n\
             speedup {:.2}x vs S-inf {:.2}x (gap {:.2}, {:.1}% of headroom).\n",
            eff(self.frtr.hiding_efficiency),
            eff(self.prtr.hiding_efficiency),
            self.prtr.effective_hit_ratio,
            self.gap.speedup_sim,
            self.gap.s_asymptotic,
            self.gap.bound_gap,
            self.gap.bound_gap_frac * 100.0,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hprc_ctx::ExecCtx;
    use hprc_fault::FaultPlan;
    use hprc_fpga::floorplan::Floorplan;
    use hprc_model::params::NormalizedTimes;
    use hprc_sim::executor::{run_frtr, run_prtr};
    use hprc_sim::node::NodeConfig;
    use hprc_sim::task::{PrtrCall, TaskCall};

    fn runs(
        t_task: f64,
        n: usize,
        all_miss: bool,
    ) -> (NodeConfig, ExecutionReport, ExecutionReport) {
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        let calls: Vec<PrtrCall> = (0..n)
            .map(|i| PrtrCall {
                task: TaskCall::with_task_time(format!("t{}", i % 3), &node, t_task),
                hit: !all_miss && i > 0,
                slot: i % node.n_prrs,
            })
            .collect();
        let frtr_calls: Vec<TaskCall> = calls.iter().map(|c| c.task).collect();
        let ctx = ExecCtx::default();
        let f = run_frtr(&node, &frtr_calls, &FaultPlan::disarmed(), &ctx).unwrap();
        let p = run_prtr(&node, &calls, &FaultPlan::disarmed(), &ctx).unwrap();
        (node, f, p)
    }

    fn params_for(node: &NodeConfig, t_task: f64, h: f64) -> ModelParams {
        ModelParams::new(
            NormalizedTimes {
                x_task: t_task / node.t_frtr_s(),
                x_control: node.control_overhead_s / node.t_frtr_s(),
                x_decision: node.decision_latency_s / node.t_frtr_s(),
                x_prtr: node.t_prtr_s() / node.t_frtr_s(),
            },
            h,
            300,
        )
        .unwrap()
    }

    #[test]
    fn frtr_hides_nothing_prtr_hides_almost_everything_on_long_tasks() {
        // T_task = 10 × T_PRTR: PRTR hides essentially all configuration.
        let (node, f, p) = runs(0.2, 30, true);
        let fa = RunAttribution::from_report("frtr", &f);
        let pa = RunAttribution::from_report("prtr", &p);
        assert_eq!(fa.hiding_efficiency, Some(0.0), "FRTR cannot overlap");
        let ph = pa.hiding_efficiency.unwrap();
        assert!(ph > 0.9, "long tasks hide configuration: {ph}");
        assert_eq!(fa.effective_hit_ratio, 0.0);
        assert_eq!(pa.n_config, 30);
        let _ = node;
    }

    #[test]
    fn all_hit_prtr_has_no_config_to_hide() {
        let (_, _, p) = runs(0.05, 10, false);
        let pa = RunAttribution::from_report("prtr", &p);
        assert_eq!(pa.n_config, 1); // only the cold start
        assert!((pa.effective_hit_ratio - 0.9).abs() < 1e-12);
    }

    #[test]
    fn bound_gap_is_small_at_the_peak() {
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        let t_task = node.t_prtr_s();
        let (_, f, p) = runs(t_task, 300, true);
        let t_actual = f.calls[0].exec_end - f.calls[0].exec_start;
        let params = params_for(&node, t_actual.as_secs_f64(), 0.0);
        let report = AttributionReport::new("test", &params, &f, &p);
        assert!(report.gap.speedup_sim > 75.0);
        assert!(report.gap.s_asymptotic >= report.gap.speedup_sim);
        // The finite run sits within a few percent of eq. (7).
        assert!(
            report.gap.bound_gap_frac < 0.05,
            "gap frac {}",
            report.gap.bound_gap_frac
        );
        assert!(!report.gap.long_task_bound_active);
    }

    #[test]
    fn report_serializes_with_stable_keys() {
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        let (_, f, p) = runs(0.05, 5, true);
        let params = params_for(&node, 0.05, 0.0);
        let report = AttributionReport::new("demo", &params, &f, &p);
        let json = serde_json::to_value(&report).unwrap();
        for key in [
            "schema_version",
            "id",
            "x_task",
            "x_prtr",
            "hit_ratio",
            "frtr",
            "prtr",
            "gap",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        for key in [
            "span_s",
            "exec_s",
            "hidden_config_s",
            "visible_config_s",
            "decision_s",
            "control_s",
            "idle_s",
            "hiding_efficiency",
            "effective_hit_ratio",
        ] {
            assert!(json["prtr"].get(key).is_some(), "missing prtr.{key}");
        }
        // Text round-trip re-parses to the same value tree.
        let text = serde_json::to_string(&report).unwrap();
        assert_eq!(serde_json::from_str(&text).unwrap(), json);
    }

    #[test]
    fn render_table_lists_all_buckets() {
        let node = NodeConfig::xd1_measured(&Floorplan::xd1_dual_prr());
        let (_, f, p) = runs(0.02, 10, true);
        let params = params_for(&node, 0.02, 0.0);
        let table = AttributionReport::new("demo", &params, &f, &p).render_table();
        for label in [
            "exec",
            "config hidden",
            "config visible",
            "decision",
            "control",
            "idle",
            "hiding efficiency",
            "span",
        ] {
            assert!(table.contains(label), "missing {label} in:\n{table}");
        }
    }

    #[test]
    fn record_exports_gauges() {
        let (_, _, p) = runs(0.05, 8, true);
        let pa = RunAttribution::from_report("prtr", &p);
        let reg = Registry::new();
        pa.record(&reg, "exp.fig9");
        let snap = reg.snapshot();
        assert!((snap.gauges["exp.fig9.attr.span_s"] - pa.span_s).abs() < 1e-12);
        assert!(snap.gauges.contains_key("exp.fig9.attr.hiding_efficiency"));
        // Disabled registries record nothing.
        let noop = Registry::noop();
        pa.record(&noop, "x");
        assert!(noop.snapshot().gauges.is_empty());
    }
}
