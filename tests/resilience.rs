//! Resilience tests (`--features fault-inject`): every fault class the
//! deterministic injection harness can produce, asserted against the
//! diagnostics record CP-ALS returns — plus a property test that *any*
//! seeded fault schedule yields a finite model or a typed error, never a
//! panic or NaN poison.
#![cfg(feature = "fault-inject")]

use adatm::tensor::gen::{dense_low_rank, zipf_tensor};
use adatm::{
    BreakdownKind, CheckpointConfig, CheckpointError, CheckpointStore, CooBackend, CpAls,
    CpAlsOptions, DtreeBackend, FaultInjectingBackend, FaultKind, FaultSchedule, FaultyMedium,
    IoFaultKind, IoFaultLog, IoFaultSchedule, RecoveryAction, StopReason,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A small noiseless low-rank tensor every test can re-converge on.
fn ground_truth() -> adatm::SparseTensor {
    dense_low_rank(&[12, 10, 11], 3, 0.0, 13).tensor
}

fn assert_model_finite(res: &adatm::CpResult) {
    assert!(res.model.lambda.iter().all(|l| l.is_finite()), "lambda poisoned");
    for (d, f) in res.model.factors.iter().enumerate() {
        assert!(f.is_finite(), "factor {d} poisoned");
    }
    assert!(res.fit_history.iter().all(|f| f.is_finite()), "fit history poisoned");
}

#[test]
fn nan_poison_triggers_rollback_and_run_recovers() {
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(4, FaultKind::PoisonNan);
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(60).tol(0.0).seed(5)).run(&t, &mut b).unwrap();
    assert_eq!(b.injected().len(), 1, "the scheduled fault must fire");
    assert!(res.diagnostics.count_of(BreakdownKind::NonFiniteMttkrp) >= 1);
    assert!(res.diagnostics.recoveries >= 1);
    assert!(!res.diagnostics.degraded, "one transient fault must not exhaust the budget");
    assert_model_finite(&res);
    assert!(res.final_fit() > 0.9, "run must re-converge after the fault, fit {}", res.final_fit());
}

#[test]
fn inf_poison_is_detected_like_nan() {
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(2, FaultKind::PoisonInf);
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(40).tol(0.0).seed(2)).run(&t, &mut b).unwrap();
    assert!(res.diagnostics.count_of(BreakdownKind::NonFiniteMttkrp) >= 1);
    assert_model_finite(&res);
}

#[test]
fn nan_poison_in_memoizing_backend_flushes_cached_intermediates() {
    // The dimension-tree backend memoizes partial MTTKRPs; a NaN that
    // reaches a cached node would poison every later mode unless the
    // rollback invalidates the tree. This is the regression this PR's
    // recovery path exists for.
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(1, FaultKind::PoisonNan);
    let mut b = FaultInjectingBackend::new(DtreeBackend::balanced_binary(&t, 3), sched);
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(60).tol(0.0).seed(7)).run(&t, &mut b).unwrap();
    assert!(res.diagnostics.count_of(BreakdownKind::NonFiniteMttkrp) >= 1);
    assert!(!res.diagnostics.degraded);
    assert_model_finite(&res);
    assert!(res.final_fit() > 0.9, "fit {}", res.final_fit());
}

#[test]
fn zero_output_forces_column_reseed() {
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(3, FaultKind::ZeroOutput);
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(40).tol(0.0).seed(3)).run(&t, &mut b).unwrap();
    // A zeroed MTTKRP collapses every factor column; the zero-column
    // guard reseeds them and records the event.
    assert!(res.diagnostics.count_of(BreakdownKind::ZeroColumns) >= 1);
    assert_model_finite(&res);
    assert!(res.final_fit() > 0.9, "fit {}", res.final_fit());
}

#[test]
fn collinear_faults_force_singular_gram_and_ridge_resolve() {
    // Two collinear factors make the third mode's Hadamard-of-Grams
    // system exactly rank-1: the condition detector must fire and repair
    // with a Tikhonov ridge (no rollback needed, the solve is saved).
    let t = ground_truth();
    let sched = FaultSchedule::new()
        .at_call(0, FaultKind::CollinearColumns)
        .at_call(1, FaultKind::CollinearColumns);
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(6).tol(0.0).seed(1)).run(&t, &mut b).unwrap();
    assert!(res.diagnostics.count_of(BreakdownKind::SingularGram) >= 1);
    assert!(
        res.diagnostics
            .events
            .iter()
            .any(|e| matches!(e.recovery, RecoveryAction::RidgeResolve { ridge } if ridge > 0.0)),
        "a ridge re-solve must have been taken: {:?}",
        res.diagnostics.events
    );
    assert_model_finite(&res);
}

#[test]
fn injected_stall_trips_the_time_budget_watchdog() {
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(0, FaultKind::StallMs(50));
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res = CpAls::new(
        CpAlsOptions::new(3).max_iters(1000).tol(0.0).time_budget(Duration::from_millis(10)),
    )
    .run(&t, &mut b)
    .unwrap();
    assert_eq!(res.diagnostics.stop, StopReason::TimeBudget);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::TimeBudgetExpired), 1);
    assert!(!res.converged);
    assert_model_finite(&res);
}

#[test]
fn watchdog_overrun_is_bounded_by_one_stage_not_one_mode() {
    // The stall hits the MTTKRP of mode 1; the post-MTTKRP re-check must
    // catch the expiry *at mode 1*. A watchdog that only polls at the
    // top of each mode loop would run mode 1's full dense phase and
    // report the expiry from mode 2 — a whole mode of overrun.
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(1, FaultKind::StallMs(100));
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res = CpAls::new(
        CpAlsOptions::new(3).max_iters(1000).tol(0.0).time_budget(Duration::from_millis(20)),
    )
    .run(&t, &mut b)
    .unwrap();
    assert_eq!(res.diagnostics.stop, StopReason::TimeBudget);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::TimeBudgetExpired), 1);
    let event = res
        .diagnostics
        .events
        .iter()
        .find(|e| e.kind == BreakdownKind::TimeBudgetExpired)
        .expect("expiry recorded");
    assert_eq!(event.iter, 0);
    assert_eq!(
        event.mode,
        Some(1),
        "expiry must be detected at the stalled mode itself, not a mode later"
    );
    assert_model_finite(&res);
}

#[test]
fn persistent_fault_exhausts_budget_and_degrades_gracefully() {
    let t = ground_truth();
    let sched = FaultSchedule::new().always(FaultKind::PoisonNan);
    let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
    let res = CpAls::new(CpAlsOptions::new(3).max_iters(50).tol(0.0).recovery_budget(2))
        .run(&t, &mut b)
        .unwrap();
    assert!(res.diagnostics.degraded);
    assert_eq!(res.diagnostics.stop, StopReason::Degraded);
    // Two rollback attempts, then the degradation event — all on the
    // same detector since the fault never clears.
    assert_eq!(res.diagnostics.count_of(BreakdownKind::NonFiniteMttkrp), 3);
    assert!(!res.converged);
    assert_model_finite(&res);
}

#[test]
fn empty_schedule_is_transparent() {
    let t = zipf_tensor(&[15, 18, 12], 500, &[0.5; 3], 6);
    let opts = CpAlsOptions::new(3).max_iters(5).tol(0.0).seed(77);
    let mut bare = CooBackend::new(&t);
    let reference = CpAls::new(opts.clone()).run(&t, &mut bare).unwrap();
    let mut wrapped = FaultInjectingBackend::new(CooBackend::new(&t), FaultSchedule::new());
    let res = CpAls::new(opts).run(&t, &mut wrapped).unwrap();
    assert_eq!(res.fit_history, reference.fit_history, "wrapper must not perturb a clean run");
    assert!(res.diagnostics.clean());
}

#[test]
fn same_seed_same_schedule_same_diagnostics() {
    let t = ground_truth();
    let run = |seed: u64| {
        let mut b =
            FaultInjectingBackend::new(CooBackend::new(&t), FaultSchedule::seeded(seed, 96));
        let res = CpAls::new(CpAlsOptions::new(3).max_iters(30).tol(0.0).seed(9))
            .run(&t, &mut b)
            .unwrap();
        (res.fit_history.clone(), res.diagnostics.events.len(), res.diagnostics.recoveries)
    };
    assert_eq!(run(1234), run(1234), "identical schedules must replay identically");
}

/// A fresh per-test temp directory (removed at the end of each test).
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adatm-resilience-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_models_bitwise_equal(a: &adatm::CpResult, b: &adatm::CpResult) {
    for (x, y) in a.model.lambda.iter().zip(&b.model.lambda) {
        assert_eq!(x.to_bits(), y.to_bits(), "lambda diverged: {x} vs {y}");
    }
    for (d, (fa, fb)) in a.model.factors.iter().zip(&b.model.factors).enumerate() {
        for (x, y) in fa.as_slice().iter().zip(fb.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "factor {d} diverged: {x} vs {y}");
        }
    }
    assert_eq!(a.fit_history.len(), b.fit_history.len());
    for (x, y) in a.fit_history.iter().zip(&b.fit_history) {
        assert_eq!(x.to_bits(), y.to_bits(), "fit history diverged: {x} vs {y}");
    }
}

#[test]
fn rollback_across_a_checkpoint_boundary_resumes_bitwise_identically() {
    // Combined fault: a NaN poison forces a rollback (reseeding from the
    // recovery RNG stream), THEN the run is killed and resumed from a
    // checkpoint written after the recovery. The resumed trajectory must
    // match the uninterrupted one bitwise — which requires the checkpoint
    // to have persisted the recovery counters (the rollback `attempt`
    // feeds the reseed stream) and the restored fit history to keep the
    // divergence/stall detectors aligned. Any divergence between the
    // in-memory recovery state and the checkpointed state shows up here
    // as a bit mismatch.
    let t = ground_truth();
    let sched = || FaultSchedule::new().at_call(4, FaultKind::PoisonNan);
    let mk_opts = |iters: usize| CpAlsOptions::new(3).max_iters(iters).tol(0.0).seed(42);

    // Reference: uninterrupted faulted run, no checkpointing.
    let mut ref_b = FaultInjectingBackend::new(CooBackend::with_parallel(&t, false), sched());
    let reference = CpAls::new(mk_opts(20)).run(&t, &mut ref_b).unwrap();
    assert!(reference.diagnostics.recoveries >= 1, "the fault must have forced a recovery");

    // Same fault, checkpoint every iteration, killed after iteration 7
    // (well past the rollback).
    let dir = tmp_dir("combined");
    let cfg = CheckpointConfig::new(&dir).every_iters(1);
    let mut kill_b = FaultInjectingBackend::new(CooBackend::with_parallel(&t, false), sched());
    let killed = CpAls::new(mk_opts(7).checkpoint(cfg)).run(&t, &mut kill_b).unwrap();
    assert!(killed.diagnostics.recoveries >= 1, "kill point is after the recovery");

    // Resume to 20. The fault at absolute call 4 is long past, so the
    // resumed backend needs no schedule — exactly like the reference,
    // which also sees no faults after that call.
    let outcome = CheckpointStore::load_latest(&dir).unwrap();
    assert_eq!(outcome.checkpoint.recoveries, killed.diagnostics.recoveries);
    let resumed = CpAls::new(mk_opts(20))
        .resume_from(&t, &mut CooBackend::with_parallel(&t, false), outcome.checkpoint)
        .unwrap();

    assert_models_bitwise_equal(&reference, &resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs checkpointed CP-ALS with an injected I/O fault schedule,
/// returning the result and the injection log.
fn run_with_io_faults(
    name: &str,
    sched: IoFaultSchedule,
    iters: usize,
) -> (adatm::CpResult, IoFaultLog, PathBuf) {
    let t = ground_truth();
    let dir = tmp_dir(name);
    let log = IoFaultLog::default();
    let log_for_factory = Arc::clone(&log);
    let cfg =
        CheckpointConfig::new(&dir).every_iters(1).keep(10).medium_factory(Arc::new(move || {
            Box::new(FaultyMedium::with_log(sched.clone(), Arc::clone(&log_for_factory)))
                as Box<dyn adatm::CheckpointMedium>
        }));
    let res = CpAls::new(CpAlsOptions::new(3).max_iters(iters).tol(0.0).seed(42).checkpoint(cfg))
        .run(&t, &mut CooBackend::with_parallel(&t, false))
        .expect("mid-run I/O faults degrade durability, never the run itself");
    (res, log, dir)
}

#[test]
fn enospc_surfaces_as_diagnostic_and_run_completes() {
    let (res, log, dir) =
        run_with_io_faults("enospc", IoFaultSchedule::new().at_write(1, IoFaultKind::Enospc), 6);
    assert_eq!(log.lock().unwrap().as_slice(), &[(1, IoFaultKind::Enospc)]);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::CheckpointWriteFailed), 1);
    assert_eq!(res.iters, 6, "the run keeps iterating through the write failure");
    assert_model_finite(&res);
    // The failed generation is simply missing; its neighbours are intact.
    let outcome = CheckpointStore::load_latest(&dir).unwrap();
    assert!(outcome.fallbacks.is_empty());
    assert_eq!(outcome.checkpoint.next_iter, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rename_failure_surfaces_as_diagnostic_and_strands_no_generation() {
    let (res, log, dir) = run_with_io_faults(
        "rename",
        IoFaultSchedule::new().at_write(2, IoFaultKind::RenameFail),
        6,
    );
    assert_eq!(log.lock().unwrap().as_slice(), &[(2, IoFaultKind::RenameFail)]);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::CheckpointWriteFailed), 1);
    // The torn temp file must not be visible as a generation.
    let outcome = CheckpointStore::load_latest(&dir).unwrap();
    assert!(outcome.fallbacks.is_empty(), "no half-promoted generation: {:?}", outcome.fallbacks);
    assert_eq!(outcome.checkpoint.next_iter, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_is_detected_at_load_and_falls_back() {
    // The medium LIES: it writes half the bytes and reports success, so
    // the run records no diagnostic. The framing check catches it at
    // load time and the loader falls back to the previous generation.
    let (res, log, dir) =
        run_with_io_faults("torn", IoFaultSchedule::new().at_write(5, IoFaultKind::TornWrite), 6);
    assert_eq!(log.lock().unwrap().as_slice(), &[(5, IoFaultKind::TornWrite)]);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::CheckpointWriteFailed), 0);
    let outcome = CheckpointStore::load_latest(&dir).unwrap();
    assert_eq!(outcome.fallbacks.len(), 1);
    assert!(
        matches!(outcome.fallbacks[0].error, CheckpointError::Truncated { .. }),
        "torn write surfaces as a typed truncation error, got {:?}",
        outcome.fallbacks[0].error
    );
    assert_eq!(outcome.checkpoint.next_iter, 5, "fell back to the generation before the tear");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_is_detected_by_checksum_and_falls_back() {
    let (res, log, dir) =
        run_with_io_faults("bitflip", IoFaultSchedule::new().at_write(5, IoFaultKind::BitFlip), 6);
    assert_eq!(log.lock().unwrap().as_slice(), &[(5, IoFaultKind::BitFlip)]);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::CheckpointWriteFailed), 0);
    let outcome = CheckpointStore::load_latest(&dir).unwrap();
    assert_eq!(outcome.fallbacks.len(), 1);
    assert!(
        matches!(outcome.fallbacks[0].error, CheckpointError::ChecksumMismatch { .. }),
        "bit flip surfaces as a typed checksum error, got {:?}",
        outcome.fallbacks[0].error
    );
    assert_eq!(outcome.checkpoint.next_iter, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_level_io_faults_are_typed_checkpoint_errors() {
    // Below the driver: a direct `CheckpointStore::write` against a
    // failing medium must return `CheckpointError::Io` carrying the
    // underlying `io::ErrorKind`, never panic.
    let t = ground_truth();
    let src = tmp_dir("store-src");
    CpAls::new(
        CpAlsOptions::new(3)
            .max_iters(3)
            .tol(0.0)
            .seed(42)
            .checkpoint(CheckpointConfig::new(&src).every_iters(1)),
    )
    .run(&t, &mut CooBackend::with_parallel(&t, false))
    .unwrap();
    let ck = CheckpointStore::load_latest(&src).unwrap().checkpoint;

    let dir = tmp_dir("store-enospc");
    let medium = FaultyMedium::new(IoFaultSchedule::new().always(IoFaultKind::Enospc));
    let mut store = CheckpointStore::with_medium(&dir, Box::new(medium)).unwrap();
    let err = store.write(&ck.as_view()).unwrap_err();
    match &err {
        CheckpointError::Io { kind, op, .. } => {
            assert_eq!(*kind, std::io::ErrorKind::StorageFull, "op {op}: {err}");
        }
        other => panic!("expected a typed Io error, got {other:?}"),
    }

    let dir2 = tmp_dir("store-rename");
    let medium = FaultyMedium::new(IoFaultSchedule::new().always(IoFaultKind::RenameFail));
    let mut store = CheckpointStore::with_medium(&dir2, Box::new(medium)).unwrap();
    let err = store.write(&ck.as_view()).unwrap_err();
    assert!(
        matches!(&err, CheckpointError::Io { kind, .. } if *kind == std::io::ErrorKind::PermissionDenied),
        "expected a typed rename error, got {err:?}"
    );

    for d in [src, dir, dir2] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn persistent_disk_failure_never_panics_and_leaves_typed_errors() {
    // Every write fails with ENOSPC: the run completes (durability fully
    // degraded), every failure is a diagnostic, and the empty store is a
    // typed NoCheckpoints at load time.
    let (res, log, dir) =
        run_with_io_faults("always-enospc", IoFaultSchedule::new().always(IoFaultKind::Enospc), 5);
    assert_eq!(log.lock().unwrap().len(), 5);
    assert_eq!(res.diagnostics.count_of(BreakdownKind::CheckpointWriteFailed), 5);
    assert_eq!(res.iters, 5);
    assert_model_finite(&res);
    let err = CheckpointStore::load_latest(&dir).unwrap_err();
    assert!(matches!(err, CheckpointError::NoCheckpoints { .. }), "got {err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn io_faults_do_not_perturb_the_model() {
    // Durability faults are observation-only: the faulted-checkpoint run
    // must produce the same bits as a run with no checkpointing at all.
    let t = ground_truth();
    let plain = CpAls::new(CpAlsOptions::new(3).max_iters(6).tol(0.0).seed(42))
        .run(&t, &mut CooBackend::with_parallel(&t, false))
        .unwrap();
    let (faulted, _, dir) = run_with_io_faults(
        "no-perturb",
        IoFaultSchedule::new()
            .at_write(1, IoFaultKind::Enospc)
            .at_write(3, IoFaultKind::BitFlip)
            .at_write(4, IoFaultKind::RenameFail),
        6,
    );
    assert_models_bitwise_equal(&plain, &faulted);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline robustness property: for ANY seeded fault schedule,
    /// the solver returns a finite model (possibly degraded) or a typed
    /// error — never a panic, never NaN in the result.
    #[test]
    fn any_seeded_fault_schedule_yields_finite_model_or_typed_error(seed in 0u64..u64::MAX) {
        let t = ground_truth();
        let sched = FaultSchedule::seeded(seed, 128);
        let mut b = FaultInjectingBackend::new(CooBackend::new(&t), sched);
        let res = CpAls::new(
            CpAlsOptions::new(3).max_iters(20).tol(0.0).seed(seed ^ 0xabcd).recovery_budget(4),
        )
        .run(&t, &mut b);
        match res {
            Ok(r) => {
                prop_assert!(r.model.lambda.iter().all(|l| l.is_finite()));
                for f in &r.model.factors {
                    prop_assert!(f.is_finite());
                }
                prop_assert!(r.fit_history.iter().all(|f| f.is_finite()));
                if r.diagnostics.degraded {
                    prop_assert!(matches!(
                        r.diagnostics.stop,
                        StopReason::Degraded | StopReason::Diverged
                    ));
                }
            }
            Err(e) => {
                // Typed rejection is an acceptable outcome; stringify to
                // prove the error surface is well-formed.
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}

/// Forwards everything to the inner backend but, from `from_call`
/// onward, overwrites each MTTKRP output with finite deterministic
/// garbage. Unlike the NaN/zero fault kinds this slips past every
/// mode-level detector — the corruption only surfaces as a sharp fit
/// drop, which is exactly the path the divergence-degrade snapshot
/// restore must handle.
struct FiniteGarbageBackend<B> {
    inner: B,
    from_call: usize,
    calls: usize,
}

impl<B: adatm::MttkrpBackend> adatm::MttkrpBackend for FiniteGarbageBackend<B> {
    fn begin_mode(&mut self, mode: usize) {
        self.inner.begin_mode(mode);
    }

    fn mttkrp_into(
        &mut self,
        tensor: &adatm::SparseTensor,
        factors: &[adatm::Mat],
        mode: usize,
        out: &mut adatm::Mat,
    ) {
        self.inner.mttkrp_into(tensor, factors, mode, out);
        if self.calls >= self.from_call {
            // Direction-changing corruption: a scale-only perturbation
            // would be absorbed by column normalization into lambda.
            for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
                *v = ((i as u64).wrapping_mul(2_654_435_761) % 1000) as f64 / 1000.0 - 0.5;
            }
        }
        self.calls += 1;
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        "finite-garbage"
    }
}

#[test]
fn fit_divergence_degrade_restores_grams_with_the_factors() {
    // Pins the stale-Gram recovery bug: the divergence-degrade path used
    // to restore factors and lambda from the last-good snapshot but left
    // the cached Gram matrices at their diverged values, handing every
    // consumer of the final state a factor/Gram pair that never
    // coexisted. The full-snapshot restore keeps them bitwise
    // consistent.
    let t = ground_truth();
    // Let the run converge cleanly for ~8 iterations (24 mode calls)
    // before the persistent finite corruption begins.
    let mut b = FiniteGarbageBackend { inner: CooBackend::new(&t), from_call: 24, calls: 0 };
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(40).tol(0.0).seed(21)).run(&t, &mut b).unwrap();
    let degrade = res
        .diagnostics
        .events
        .iter()
        .find(|e| e.kind == BreakdownKind::FitDivergence)
        .expect("finite garbage must surface as a fit divergence");
    assert_eq!(degrade.recovery, RecoveryAction::Degrade);
    assert_eq!(res.diagnostics.stop, StopReason::Diverged);
    assert_model_finite(&res);
    // The pinned invariant: the restored cached Grams are exactly the
    // Grams of the restored factors.
    assert_eq!(res.grams.len(), res.model.factors.len());
    for (d, (g, f)) in res.grams.iter().zip(&res.model.factors).enumerate() {
        let fresh = f.gram();
        for (a, b) in g.as_slice().iter().zip(fresh.as_slice()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "mode {d}: cached Gram diverged from the restored factor ({a} vs {b})"
            );
        }
    }
}

/// Forwards to the inner backend but reports a fixed calibrated
/// per-iteration prediction, so the drift detector runs against a
/// known-good baseline.
struct CalibratedStub<B> {
    inner: B,
    predicted_ns: f64,
}

impl<B: adatm::MttkrpBackend> adatm::MttkrpBackend for CalibratedStub<B> {
    fn begin_mode(&mut self, mode: usize) {
        self.inner.begin_mode(mode);
    }

    fn mttkrp_into(
        &mut self,
        tensor: &adatm::SparseTensor,
        factors: &[adatm::Mat],
        mode: usize,
        out: &mut adatm::Mat,
    ) {
        self.inner.mttkrp_into(tensor, factors, mode, out);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        "calibrated-stub"
    }

    fn predicted_iter_ns(&self) -> Option<f64> {
        Some(self.predicted_ns)
    }
}

#[test]
fn drift_detector_excludes_recovered_iterations_from_the_average() {
    // Pins the drift-average bug: the detector used to average kernel
    // time over ALL iterations, so a single recovered fault (whose
    // stalled kernel time plus rollback re-work dwarfs a clean sweep)
    // pushed the mean over the threshold and mis-blamed the cost model
    // for an injected hardware fault. Clean-iteration averaging must not
    // warn here.
    let t = ground_truth();
    // One iteration (calls 30..33, i.e. iteration 10) both stalls and
    // poisons: the stall inflates that iteration's measured kernel time
    // ~1000x past any clean sweep, and the poison marks the iteration
    // non-clean so the fixed average excludes it.
    let sched =
        FaultSchedule::new().at_call(30, FaultKind::StallMs(200)).at_call(31, FaultKind::PoisonNan);
    // Sequential COO: a clean sweep then costs no thread hand-offs, whose
    // scheduling jitter on a small, loaded host pushed the parallel
    // backend's clean average toward the 2 ms threshold.
    let faulty = FaultInjectingBackend::new(CooBackend::with_parallel(&t, false), sched);
    // Predict 1 ms/iter: far above a clean ~10x10x10 sweep (so clean
    // iterations can never trip the 2x default factor) yet far below the
    // 200 ms stall smeared over 30 iterations (so the old all-iteration
    // average reliably tripped it).
    let mut b = CalibratedStub { inner: faulty, predicted_ns: 1e6 };
    let res =
        CpAls::new(CpAlsOptions::new(3).max_iters(30).tol(0.0).seed(9)).run(&t, &mut b).unwrap();
    assert!(res.diagnostics.recoveries >= 1, "the injected fault must recover");
    let measured = res.diagnostics.measured_iter_ns.expect("clean iterations must be measured");
    assert!(
        measured < 1e6,
        "clean-iteration average ({measured:.0} ns) must exclude the stalled iteration"
    );
    assert_eq!(
        res.diagnostics.count_of(BreakdownKind::PredictionDrift),
        0,
        "an injected fault must not be misattributed to calibration drift"
    );
    assert_model_finite(&res);
}

#[test]
fn fault_during_armed_pp_disarms_and_recovers_to_exact_sweeps() {
    // A recovery event while pairwise perturbation is armed invalidates
    // the memoized baseline (the restored factors are not the ones the
    // pair memos were refreshed against), so the controller must disarm
    // and the next sweeps run exact until re-armed. The run must stay
    // finite and re-converge.
    let t = ground_truth();
    let sched = FaultSchedule::new().at_call(20, FaultKind::PoisonNan);
    let mut b = FaultInjectingBackend::new(DtreeBackend::balanced_binary(&t, 3), sched);
    let res = CpAls::new(
        CpAlsOptions::new(3)
            .max_iters(80)
            .tol(0.0)
            .seed(17)
            .pp(adatm::PpConfig::new().tol(0.05).every(4)),
    )
    .run(&t, &mut b)
    .unwrap();
    assert!(res.diagnostics.recoveries >= 1, "the scheduled fault must fire and recover");
    assert!(res.diagnostics.pp_sweeps >= 1, "PP must have been armed before the fault");
    assert!(!res.diagnostics.degraded);
    assert_model_finite(&res);
    assert!(res.final_fit() > 0.9, "run must re-converge after the fault, fit {}", res.final_fit());
}
