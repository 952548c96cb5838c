//! Figure 5's headline bounds, checked against the data the experiments
//! report (and therefore write to their CSV and JSON artifacts).
//!
//! Figure 9 runs at `H = 0`, where PAPER.md's Fig 5 bounds read: the
//! speedup peaks at `1 + 1/X_PRTR`, and for `X_task ≥ 1` it never
//! exceeds 2. Every simulated sweep point must respect both, within a
//! 0.1% tolerance (ten times tighter than the model-simulator agreement
//! `validate` checks). The same peak bound holds for every ICAP variant
//! of `ext-icap`, every PRR layout of `ext-granularity` and every
//! platform of `ext-platforms` at its own `X_PRTR`, where no simulated
//! peak beats the model's either; and at `H ≠ 0` (`ext-prefetch`) no
//! simulated point beats the model's speedup at its measured `H`.

use prtr_bounds::ctx::ExecCtx;
use prtr_bounds::exp::run_experiment;

/// Relative tolerance of a simulated speedup over a closed-form bound.
const TOL: f64 = 1e-3;

#[test]
fn fig9_points_respect_the_fig5_bounds() {
    for id in ["fig9a", "fig9b"] {
        let report = run_experiment(id, &ExecCtx::default()).unwrap();
        let x_prtr = report.json["x_prtr"].as_f64().unwrap();
        let points = report.json["points"].as_array().unwrap();
        assert!(points.len() > 10, "{id}: sweep too short");
        let mut long_tasks = 0;
        for p in points {
            let x_task = p["x_task"].as_f64().unwrap();
            let s = p["speedup_sim"].as_f64().unwrap();
            let peak = 1.0 + 1.0 / x_prtr;
            assert!(
                s <= peak * (1.0 + TOL),
                "{id}: S = {s} at X_task = {x_task} exceeds 1 + 1/X_PRTR = {peak}"
            );
            if x_task >= 1.0 {
                long_tasks += 1;
                assert!(
                    s <= 2.0 * (1.0 + TOL),
                    "{id}: S = {s} at X_task = {x_task} >= 1 exceeds 2"
                );
            }
        }
        assert!(long_tasks > 0, "{id}: the sweep must reach X_task >= 1");
    }
}

#[test]
fn ext_icap_peaks_respect_their_own_fig5_bound() {
    let report = run_experiment("ext-icap", &ExecCtx::default()).unwrap();
    let variants = report.json.as_array().unwrap();
    assert!(variants.len() >= 5, "ext-icap: too few variants");
    for v in variants {
        let name = v["variant"].as_str().unwrap();
        let x_prtr = v["x_prtr"].as_f64().unwrap();
        let s = v["peak_speedup_sim"].as_f64().unwrap();
        let peak = 1.0 + 1.0 / x_prtr;
        assert!(
            s <= peak * (1.0 + TOL),
            "ext-icap {name}: peak S = {s} exceeds 1 + 1/X_PRTR = {peak}"
        );
    }
}

#[test]
fn ext_prefetch_points_stay_under_the_model() {
    let report = run_experiment("ext-prefetch", &ExecCtx::default()).unwrap();
    let points = report.json.as_array().unwrap();
    assert_eq!(points.len(), 5 * 7, "ext-prefetch: policy x workload grid");
    assert!(
        points
            .iter()
            .any(|p| p["hit_ratio"].as_f64().unwrap() > 0.0),
        "ext-prefetch: the grid must reach H > 0"
    );
    for p in points {
        let s = p["speedup_sim"].as_f64().unwrap();
        let model = p["speedup_model"].as_f64().unwrap();
        assert!(
            s <= model * (1.0 + TOL),
            "ext-prefetch {} / {}: S = {s} exceeds the model's {model} at H = {}",
            p["trace"],
            p["policy"],
            p["hit_ratio"]
        );
    }
}

/// Rows of `id` keyed by `key`, each reporting `x_prtr` and its model and
/// simulated peak speedups, must satisfy `sim_peak ≤ 1 + 1/X_PRTR` and
/// `sim_peak ≤ model_peak`.
fn peaks_respect_their_own_fig5_bound(id: &str, key: &str, min_rows: usize) {
    let report = run_experiment(id, &ExecCtx::default()).unwrap();
    let rows = report.json.as_array().unwrap();
    assert!(rows.len() >= min_rows, "{id}: too few rows");
    for row in rows {
        let name = row[key].as_str().unwrap();
        let x_prtr = row["x_prtr"].as_f64().unwrap();
        let model = row["model_peak"].as_f64().unwrap();
        let s = row["sim_peak"].as_f64().unwrap();
        let peak = 1.0 + 1.0 / x_prtr;
        assert!(
            s <= peak * (1.0 + TOL),
            "{id} {name}: peak S = {s} exceeds 1 + 1/X_PRTR = {peak}"
        );
        assert!(
            s <= model * (1.0 + TOL),
            "{id} {name}: peak S = {s} exceeds the model's peak {model}"
        );
    }
}

#[test]
fn ext_granularity_layouts_respect_their_own_fig5_bound() {
    peaks_respect_their_own_fig5_bound("ext-granularity", "layout", 3);
}

#[test]
fn ext_platforms_rows_respect_their_own_fig5_bound() {
    peaks_respect_their_own_fig5_bound("ext-platforms", "platform", 3);
}
