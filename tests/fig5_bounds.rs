//! Figure 5's headline bounds, checked against the data the Figure 9
//! experiments report (and therefore write to `fig9a.csv`/`fig9b.csv`).
//!
//! Figure 9 runs at `H = 0`, where PAPER.md's Fig 5 bounds read: the
//! speedup peaks at `1 + 1/X_PRTR`, and for `X_task ≥ 1` it never
//! exceeds 2. Every simulated sweep point must respect both, within a
//! 0.1% tolerance (ten times tighter than the model-simulator agreement
//! `validate` checks).

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
