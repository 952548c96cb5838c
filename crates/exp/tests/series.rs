//! The `<id>.csv` curve series travel on the experiment's own report:
//! each is built from the sweep the run rendered its rows from, never
//! from a second simulation.

use hprc_ctx::ExecCtx;
use hprc_exp::{run_experiment, series_text, ALL_EXPERIMENTS};

/// Every experiment that writes a CSV artifact.
const CSV_IDS: [&str; 7] = [
    "fig5",
    "fig9a",
    "fig9b",
    "ext-landscape",
    "ext-faults",
    "ext-preempt",
    "ext-fleet",
];

#[test]
fn exactly_the_csv_experiments_carry_a_series() {
    for id in ALL_EXPERIMENTS {
        let report = run_experiment(id, &ExecCtx::default()).unwrap();
        assert_eq!(
            report.series.is_some(),
            CSV_IDS.contains(&id),
            "{id}: series presence"
        );
        if let Some(csv) = report.series {
            assert!(csv.starts_with("label,x,y\n"), "{id}: CSV header");
            assert!(csv.lines().count() > 3, "{id}: CSV has no rows");
        }
    }
}

/// The parallel runs (`par_indexed` fan-out in fig9, ext-faults and
/// ext-preempt; node fan-out in ext-fleet) yield the very bytes of the
/// serial runs.
#[test]
fn series_is_identical_at_jobs_1_and_4() {
    for id in CSV_IDS {
        let serial = run_experiment(id, &ExecCtx::default().with_jobs(1)).unwrap();
        let parallel = run_experiment(id, &ExecCtx::default().with_jobs(4)).unwrap();
        assert!(serial.series.is_some(), "{id}: no series");
        assert_eq!(serial.series, parallel.series, "{id}: series differs");
    }
}

/// `series_text` is a quiet re-run's report series, so an instrumented
/// run's own series (what the CLI seals) equals it byte for byte.
#[test]
fn series_text_returns_the_reports_series() {
    for id in CSV_IDS {
        let ctx = ExecCtx::default().with_registry(hprc_obs::Registry::new());
        let report = run_experiment(id, &ctx).unwrap();
        assert_eq!(
            series_text(id, &ctx).unwrap(),
            report.series,
            "{id}: series_text"
        );
    }
    assert_eq!(series_text("table1", &ExecCtx::default()).unwrap(), None);
}
