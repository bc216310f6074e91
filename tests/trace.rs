//! Integration tests for the structured NDJSON tracing subsystem: a
//! traced CP-ALS run must emit planner decisions, per-stage timings, and
//! well-nested spans; dense-stage attribution must match `timings.dense`
//! exactly (no double counting, even across recovery paths); and the
//! drift detector must flag a calibration profile whose prediction the
//! measured run blows past.

use adatm::planner::ClassRate;
use adatm::tensor::gen::dense_low_rank;
use adatm::trace::{field_f64, field_str, field_u64};
use adatm::{
    AdaptiveBackend, BreakdownKind, CooBackend, CpAls, CpAlsOptions, KernelProfile, Planner,
    UpdateRule,
};
use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};

/// The trace sink is process-global; every test that installs one holds
/// this lock so concurrent tests cannot interleave events.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// A small noiseless low-rank tensor every test decomposes.
fn small_tensor() -> adatm::SparseTensor {
    dense_low_rank(&[10, 9, 8], 3, 0.0, 42).tensor
}

/// A calibration profile that predicts essentially free kernels — any
/// real run is orders of magnitude slower, which must trip the drift
/// detector.
fn underpredicting_profile() -> KernelProfile {
    let cheap = ClassRate { ns_per_unit_1t: 1e-6, ns_per_unit_nt: 1e-6 };
    KernelProfile {
        threads: 1,
        coo_mttkrp: cheap,
        csf_root: cheap,
        tree_pull: cheap,
        tree_scatter: cheap,
        pp_update: cheap,
    }
}

#[test]
fn traced_run_emits_planner_decisions_stages_and_nested_spans() {
    // The multiplicative rule reports its update as one `mu` stage in
    // place of `solve` and `normalize`.
    let cases = [
        (UpdateRule::LeastSquares, ["solve", "normalize"].as_slice(), ["mu"].as_slice()),
        (UpdateRule::Multiplicative, ["mu"].as_slice(), ["solve", "normalize"].as_slice()),
    ];
    for (rule, update_stages, absent) in cases {
        check_traced_run(rule, update_stages, absent);
    }
}

fn check_traced_run(rule: UpdateRule, update_stages: &[&str], absent: &[&str]) {
    let _g = lock();
    let sink = adatm::trace::install_memory();
    let t = small_tensor();
    let mut b = AdaptiveBackend::plan(&t, 3);
    let opts = CpAlsOptions::new(3).max_iters(3).tol(0.0).seed(1).update(rule);
    let res = CpAls::new(opts).run(&t, &mut b).unwrap();
    adatm::trace::shutdown();
    let lines = sink.lines();
    let kinds: Vec<&str> = lines.iter().filter_map(|l| field_str(l, "ev")).collect();
    assert_eq!(kinds.len(), lines.len(), "every line must carry an \"ev\" kind");
    for required in ["planner.candidate", "planner.decision", "backend.dispatch", "stage"] {
        assert!(kinds.contains(&required), "missing '{required}' event in {kinds:?}");
    }
    // Every stage boundary of the rule is attributed.
    let stages: HashSet<&str> = lines
        .iter()
        .filter(|l| field_str(l, "ev") == Some("stage"))
        .filter_map(|l| field_str(l, "stage"))
        .collect();
    for s in ["mttkrp", "gram", "dense", "fit"].iter().chain(update_stages) {
        assert!(stages.contains(s), "{rule:?}: missing stage '{s}' in {stages:?}");
    }
    for s in absent {
        assert!(!stages.contains(s), "{rule:?}: stray stage '{s}' in {stages:?}");
    }
    // Sequence numbers strictly increase (the NDJSON file is replayable
    // in order).
    let seqs: Vec<u64> = lines.iter().filter_map(|l| field_u64(l, "seq")).collect();
    assert_eq!(seqs.len(), lines.len(), "every line must carry a seq");
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq must be strictly increasing");
    // Spans pair up, and one cpals.iter span closes per iteration.
    let opens = kinds.iter().filter(|k| **k == "span_open").count();
    let closes = kinds.iter().filter(|k| **k == "span_close").count();
    assert_eq!(opens, closes, "every span must close");
    let iter_spans = lines
        .iter()
        .filter(|l| {
            field_str(l, "ev") == Some("span_close") && field_str(l, "span") == Some("cpals.iter")
        })
        .count();
    assert_eq!(iter_spans, res.iters, "one cpals.iter span per iteration");
}

#[test]
fn dense_stage_attribution_matches_timings_exactly() {
    let _g = lock();
    let sink = adatm::trace::install_memory();
    let t = small_tensor();
    let mut b = CooBackend::new(&t);
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(4).tol(0.0).seed(2)).run(&t, &mut b).unwrap();
    adatm::trace::shutdown();
    let traced: u128 = sink
        .lines()
        .iter()
        .filter(|l| field_str(l, "ev") == Some("stage") && field_str(l, "stage") == Some("dense"))
        .filter_map(|l| field_u64(l, "elapsed_ns"))
        .map(u128::from)
        .sum();
    // Every += into timings.dense traces the same Duration it added, so
    // the sum is exact — any double-counted (or untraced) dense block
    // breaks this equality.
    assert_eq!(traced, res.timings.dense.as_nanos(), "dense attribution must be exact");
}

#[test]
fn shutdown_disables_tracing_and_emits_nothing() {
    let _g = lock();
    let sink = adatm::trace::install_memory();
    adatm::trace::shutdown();
    assert!(!adatm::trace::enabled());
    let t = small_tensor();
    let mut b = AdaptiveBackend::plan(&t, 3);
    CpAls::new(CpAlsOptions::new(3).max_iters(2).tol(0.0).seed(3)).run(&t, &mut b).unwrap();
    assert!(sink.lines().is_empty(), "a torn-down sink must see no events");
}

#[test]
fn underpredicting_calibration_trips_the_drift_detector() {
    let _g = lock();
    let sink = adatm::trace::install_memory();
    let t = small_tensor();
    let mut b = AdaptiveBackend::from_plan(
        &t,
        3,
        Planner::new(&t, 3).calibration(underpredicting_profile()).plan(),
    );
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(3).tol(0.0).seed(4)).run(&t, &mut b).unwrap();
    adatm::trace::shutdown();
    let predicted = res.diagnostics.predicted_iter_ns.expect("calibrated plan must predict");
    let measured = res.diagnostics.measured_iter_ns.expect("run must measure");
    assert!(measured > predicted, "the profile must underpredict ({predicted} vs {measured})");
    assert_eq!(res.diagnostics.count_of(BreakdownKind::PredictionDrift), 1);
    let lines = sink.lines();
    let warning = lines
        .iter()
        .find(|l| field_str(l, "ev") == Some("drift.warning"))
        .expect("a drift.warning event must be emitted");
    let ratio = field_f64(warning, "ratio").expect("drift.warning carries the ratio");
    assert!(ratio > 2.0, "ratio {ratio} must exceed the default factor");
    assert!(
        lines.iter().any(|l| field_str(l, "ev") == Some("drift.check")),
        "the drift.check record must be present even when warning"
    );
    let summary = res.trace_summary();
    assert!(summary.contains("predicted_iter="), "{summary}");
    assert!(summary.contains("ratio="), "{summary}");
}

#[test]
fn drift_factor_zero_disables_the_detector() {
    let _g = lock();
    let t = small_tensor();
    let mut b = AdaptiveBackend::from_plan(
        &t,
        3,
        Planner::new(&t, 3).calibration(underpredicting_profile()).plan(),
    );
    let res = CpAls::new(CpAlsOptions::new(3).max_iters(3).tol(0.0).seed(5).drift_factor(0.0))
        .run(&t, &mut b)
        .unwrap();
    assert_eq!(res.diagnostics.count_of(BreakdownKind::PredictionDrift), 0);
    // The measurement itself is still recorded for trace_summary.
    assert!(res.diagnostics.measured_iter_ns.is_some());
}

/// Recovery paths restore snapshots and re-run dense work; the exact
/// attribution equality must survive them (this is the double-counting
/// regression the trace events exist to catch).
#[cfg(feature = "fault-inject")]
#[test]
fn dense_attribution_stays_exact_across_recovery_paths() {
    use adatm::{FaultInjectingBackend, FaultKind, FaultSchedule};
    let _g = lock();
    let sink = adatm::trace::install_memory();
    let t = small_tensor();
    let sched = FaultSchedule::new().at_call(2, FaultKind::PoisonNan);
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(20).tol(0.0).seed(6)).run(&t, &mut b).unwrap();
    adatm::trace::shutdown();
    assert!(res.diagnostics.recoveries >= 1, "the injected fault must recover");
    let lines = sink.lines();
    let traced: u128 = lines
        .iter()
        .filter(|l| field_str(l, "ev") == Some("stage") && field_str(l, "stage") == Some("dense"))
        .filter_map(|l| field_u64(l, "elapsed_ns"))
        .map(u128::from)
        .sum();
    assert_eq!(traced, res.timings.dense.as_nanos(), "recovery must not double-count dense time");
    assert!(
        lines.iter().any(|l| field_str(l, "ev") == Some("recovery")),
        "the rollback must be traced"
    );
}
