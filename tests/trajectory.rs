//! Cross-commit trajectory fingerprints for the CP-ALS solver.
//!
//! The determinism tests elsewhere compare two runs of the *same* build,
//! so they cannot notice a refactor that reorders one floating-point
//! operation: both runs move together. This file pins, per scenario, a
//! hash of everything a run observably produces and compares it against
//! a constant recorded from an earlier build:
//!
//! * the bits of `fit_history`, `lambda` and every factor entry;
//! * the diagnostics list (iteration, mode, kind, recovery action);
//! * the ordered trace events with their non-timing fields (`seq`,
//!   every `*_ns` field and `ratio` are dropped), interleaved with one
//!   `test.backend` event per backend call (`begin_mode`, `mttkrp`,
//!   `reset`), so the order of cache invalidations is pinned too.
//!
//! The nonnegative-CP scenarios pin only the first item: their constants
//! were recorded from the standalone NCP driver that the multiplicative
//! update rule of `CpAls` replaced, which emitted no trace and no
//! diagnostics.
//!
//! Every scenario runs on the sequential COO backend, whose output does
//! not depend on the thread count; the pinned values hold under both
//! `RAYON_NUM_THREADS=1` and `RAYON_NUM_THREADS=2`. A mismatch means the
//! trajectory, the recovery decisions or the trace order changed — which
//! a pure refactor of the solver must never do. If a change is *meant* to
//! alter trajectories, re-record the constants and say why in the commit.

use adatm::tensor::gen::{low_rank_tensor, zipf_tensor};
use adatm::trace::{Event, Value};
use adatm::{
    CheckpointConfig, CheckpointStore, CooBackend, CpAls, CpAlsOptions, CpResult, Mat,
    MttkrpBackend, PpConfig, SparseTensor, UpdateRule,
};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// The trace sink is process-global: every scenario holds this lock
/// while its sink is installed so events from concurrent tests cannot
/// interleave.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// 64-bit FNV-1a: stable across platforms and toolchains, unlike
/// `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(v.to_bits());
        }
    }
}

/// Hasher over the run's numeric state: iterations, fit history, λ
/// and every factor.
fn model_fnv(res: &CpResult) -> Fnv {
    let mut h = Fnv::new();
    h.u64(res.iters as u64);
    h.f64s(&res.fit_history);
    h.f64s(&res.model.lambda);
    for f in &res.model.factors {
        h.u64(f.nrows() as u64);
        h.f64s(f.as_slice());
    }
    h
}

/// Hash of the run's numeric state and diagnostics.
fn state_hash(res: &CpResult) -> u64 {
    let mut h = model_fnv(res);
    h.str(&format!("{:?}", res.diagnostics.stop));
    for e in &res.diagnostics.events {
        h.u64(e.iter as u64);
        h.str(&format!("{:?} {:?} {:?}", e.mode, e.kind, e.recovery));
    }
    h.0
}

/// Splits one flat NDJSON trace line into `(key, raw value)` pairs in
/// order. The trace writer only emits flat objects of strings, numbers
/// and booleans, so a small scanner suffices.
fn fields(line: &str) -> Vec<(String, String)> {
    let body = line.trim().trim_start_matches('{').trim_end_matches('}');
    let mut out = Vec::new();
    let mut chars = body.chars().peekable();
    let read_str = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| {
        let mut s = String::new();
        while let Some(c) = chars.next() {
            match c {
                '\\' => s.extend(chars.next()),
                '"' => break,
                c => s.push(c),
            }
        }
        s
    };
    loop {
        while chars.peek().is_some_and(|c| *c != '"') {
            chars.next();
        }
        if chars.next().is_none() {
            break;
        }
        let key = read_str(&mut chars);
        while chars.peek().is_some_and(|c| *c == ':' || *c == ' ') {
            chars.next();
        }
        let value = if chars.peek() == Some(&'"') {
            chars.next();
            read_str(&mut chars)
        } else {
            let mut v = String::new();
            while let Some(c) = chars.peek().copied().filter(|c| *c != ',') {
                v.push(c);
                chars.next();
            }
            v.trim().to_string()
        };
        out.push((key, value));
    }
    out
}

/// Hash of the ordered trace events with every timing field removed.
fn trace_hash(lines: &[String]) -> u64 {
    let mut h = Fnv::new();
    for line in lines {
        for (k, v) in fields(line) {
            if k == "seq" || k == "ratio" || k.ends_with("_ns") {
                continue;
            }
            h.str(&k);
            h.str(&v);
        }
        h.u64(u64::MAX);
    }
    h.0
}

/// Runs `scenario` under an in-memory trace sink and returns the
/// fingerprint of its result plus every event it emitted.
fn fingerprint(scenario: impl FnOnce() -> CpResult) -> (u64, u64) {
    let _g = lock();
    let sink = adatm::trace::install_memory();
    let res = scenario();
    adatm::trace::shutdown();
    (state_hash(&res), trace_hash(&sink.lines()))
}

fn check(name: &str, got: (u64, u64), pinned: (u64, u64)) {
    assert_eq!(
        got, pinned,
        "{name}: trajectory fingerprint changed (state, trace) = ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

/// Forwards to the inner backend and records every call as a trace
/// event, so the fingerprint sees when the solver invalidates memoized
/// state and which modes it computes.
struct Recording<B>(B);

fn record(op: &'static str, mode: Option<usize>) {
    let mut e = Event::new("test.backend").field("op", Value::from(op));
    if let Some(m) = mode {
        e.push("mode", Value::from(m));
    }
    adatm::trace::emit(e);
}

impl<B: MttkrpBackend> MttkrpBackend for Recording<B> {
    fn begin_mode(&mut self, mode: usize) {
        record("begin_mode", Some(mode));
        self.0.begin_mode(mode);
    }

    fn mttkrp_into(&mut self, tensor: &SparseTensor, factors: &[Mat], mode: usize, out: &mut Mat) {
        record("mttkrp", Some(mode));
        self.0.mttkrp_into(tensor, factors, mode, out);
    }

    fn reset(&mut self) {
        record("reset", None);
        self.0.reset();
    }

    fn mode_order(&self, ndim: usize) -> Vec<usize> {
        self.0.mode_order(ndim)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn predicted_iter_ns(&self) -> Option<f64> {
        self.0.predicted_iter_ns()
    }
}

/// Sequential COO: a fixed reduction order, independent of the thread
/// count.
fn backend(t: &SparseTensor) -> Recording<CooBackend> {
    Recording(CooBackend::with_parallel(t, false))
}

/// A noisy 4-mode low-rank tensor: non-trivial, never converges exactly.
fn als_tensor() -> SparseTensor {
    low_rank_tensor(&[14, 12, 10, 9], 3, 900, 0.05, 5).tensor
}

/// A skewed random tensor whose trajectory arms pairwise perturbation.
fn pp_tensor() -> SparseTensor {
    zipf_tensor(&[30, 26, 22, 18], 2_500, &[0.7; 4], 9)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adatm-traj-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `max_iters` iterations with a checkpoint every 2, "kills" the
/// run after 5, and resumes from the newest generation to the end.
fn kill_and_resume(t: &SparseTensor, opts: CpAlsOptions, max_iters: usize, tag: &str) -> CpResult {
    let dir = tmp_dir(tag);
    let cfg = CheckpointConfig::new(&dir).every_iters(2);
    let killed =
        CpAls::new(opts.clone().max_iters(5).checkpoint(cfg.clone())).run(t, &mut backend(t));
    assert_eq!(killed.unwrap().iters, 5);
    let outcome = CheckpointStore::load_latest(&dir).unwrap();
    assert_eq!(outcome.checkpoint.next_iter, 4);
    let resumed = CpAls::new(opts.max_iters(max_iters).checkpoint(cfg))
        .resume_from(t, &mut backend(t), outcome.checkpoint)
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    resumed
}

#[test]
fn plain_als_trajectory_is_pinned() {
    let t = als_tensor();
    let got = fingerprint(|| {
        let opts = CpAlsOptions::new(3).max_iters(12).tol(0.0).seed(11);
        CpAls::new(opts).run(&t, &mut backend(&t)).unwrap()
    });
    check("plain ALS", got, PINNED_ALS);
}

#[test]
fn pp_trajectory_is_pinned() {
    let t = pp_tensor();
    let got = fingerprint(|| {
        let opts = CpAlsOptions::new(4)
            .max_iters(30)
            .tol(0.0)
            .seed(3)
            .pp(PpConfig::new().tol(0.05).every(4));
        let res = CpAls::new(opts).run(&t, &mut backend(&t)).unwrap();
        assert!(res.diagnostics.pp_sweeps > 0, "the scenario must arm PP");
        res
    });
    check("ALS + PP", got, PINNED_PP);
}

#[test]
fn checkpoint_kill_and_resume_trajectory_is_pinned() {
    let t = als_tensor();
    let got =
        fingerprint(|| kill_and_resume(&t, CpAlsOptions::new(3).tol(0.0).seed(11), 12, "ckpt"));
    check("checkpoint kill + resume", got, PINNED_CKPT_RESUME);
}

#[test]
fn pp_checkpoint_kill_and_resume_trajectory_is_pinned() {
    let t = pp_tensor();
    let got = fingerprint(|| {
        let opts = CpAlsOptions::new(4).tol(0.0).seed(3).pp(PpConfig::new().tol(1e9).every(3));
        let res = kill_and_resume(&t, opts, 16, "pp-ckpt");
        assert!(res.diagnostics.pp_sweeps > 0, "the resumed run must arm PP");
        res
    });
    check("ALS + PP checkpoint kill + resume", got, PINNED_PP_CKPT_RESUME);
}

/// Nonnegative CP from the starting factors the standalone NCP driver
/// drew (`Mat::random` seeded `seed ^ (0xabc + mode)`), where its pins
/// were recorded. Holds the sink lock: the run's trace events must not
/// land in another scenario's sink.
fn ncp_run(t: &SparseTensor, max_iters: usize, tol: f64) -> CpResult {
    let _g = lock();
    let (rank, seed) = (4, 3);
    let start = t
        .dims()
        .iter()
        .enumerate()
        .map(|(d, &rows)| Mat::random(rows, rank, seed ^ (0xabc + d as u64)))
        .collect();
    let opts = CpAlsOptions::new(rank)
        .max_iters(max_iters)
        .tol(tol)
        .seed(seed)
        .update(UpdateRule::Multiplicative);
    CpAls::new(opts).run_from(t, &mut CooBackend::with_parallel(t, false), start).unwrap()
}

#[test]
fn ncp_trajectory_is_pinned() {
    let res = ncp_run(&pp_tensor(), 20, 0.0);
    assert_eq!(res.iters, 20);
    assert_eq!(model_fnv(&res).0, PINNED_NCP, "nonnegative CP: trajectory changed");
}

#[test]
fn ncp_converging_trajectory_is_pinned() {
    let res = ncp_run(&pp_tensor(), 300, 1e-4);
    assert!(res.converged, "the scenario must converge before its cap");
    assert_eq!(res.iters, 26);
    assert_eq!(model_fnv(&res).0, PINNED_NCP_CONVERGED, "nonnegative CP: trajectory changed");
}

#[cfg(feature = "fault-inject")]
mod faults {
    use super::*;
    use adatm::tensor::gen::dense_low_rank;
    use adatm::{BreakdownKind, FaultInjectingBackend, FaultKind, FaultSchedule, RecoveryAction};

    /// From call `from_call` on, overwrites every MTTKRP output with
    /// finite, direction-changing garbage: no mode-level detector sees
    /// it, so it surfaces only as a fit divergence.
    struct FiniteGarbage<B> {
        inner: B,
        from_call: usize,
        calls: usize,
    }

    impl<B: MttkrpBackend> MttkrpBackend for FiniteGarbage<B> {
        fn begin_mode(&mut self, mode: usize) {
            self.inner.begin_mode(mode);
        }

        fn mttkrp_into(
            &mut self,
            tensor: &SparseTensor,
            factors: &[Mat],
            mode: usize,
            out: &mut Mat,
        ) {
            self.inner.mttkrp_into(tensor, factors, mode, out);
            if self.calls >= self.from_call {
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

    /// A noiseless low-rank tensor: the fit approaches 1, so corrupted
    /// sweeps show up as sharp fit drops.
    fn exact_tensor(dims: &[usize]) -> SparseTensor {
        dense_low_rank(dims, 3, 0.0, 13).tensor
    }

    fn assert_fired(res: &CpResult, kinds: &[BreakdownKind]) {
        for &k in kinds {
            assert!(
                res.diagnostics.count_of(k) > 0,
                "scenario must trigger {k:?}: {:?}",
                res.diagnostics.events
            );
        }
    }

    #[test]
    fn recovery_trajectory_is_pinned() {
        // Collinear outputs at calls 0 and 1 force a ridge re-solve on
        // the third mode, a NaN at call 7 forces a rollback, a zeroed
        // output at call 13 forces a column reseed, and finite garbage
        // from call 40 on ends the run in a divergence-degrade.
        let t = exact_tensor(&[12, 10, 11]);
        let got = fingerprint(|| {
            let sched = FaultSchedule::new()
                .at_call(0, FaultKind::CollinearColumns)
                .at_call(1, FaultKind::CollinearColumns)
                .at_call(7, FaultKind::PoisonNan)
                .at_call(13, FaultKind::ZeroOutput);
            let inner = FaultInjectingBackend::new(backend(&t), sched);
            let mut b = FiniteGarbage { inner, from_call: 40, calls: 0 };
            let opts = CpAlsOptions::new(3).max_iters(30).tol(0.0).seed(11);
            let res = CpAls::new(opts).run(&t, &mut b).unwrap();
            assert_fired(
                &res,
                &[
                    BreakdownKind::SingularGram,
                    BreakdownKind::NonFiniteMttkrp,
                    BreakdownKind::ZeroColumns,
                    BreakdownKind::FitDivergence,
                ],
            );
            assert!(res.diagnostics.degraded, "the run must end in a divergence-degrade");
            res
        });
        check("fault-inject recoveries", got, PINNED_FAULTS);
    }

    #[test]
    fn pp_recovery_trajectory_is_pinned() {
        // A NaN while PP is armed forces a recovery disarm; garbage that
        // starts while PP is armed first surfaces as a PP-induced
        // divergence (disarm and continue), then as a degrade.
        let t = exact_tensor(&[10, 9, 8, 7]);
        let got = fingerprint(|| {
            let sched = FaultSchedule::new().at_call(26, FaultKind::PoisonNan);
            let inner = FaultInjectingBackend::new(backend(&t), sched);
            let mut b = FiniteGarbage { inner, from_call: 44, calls: 0 };
            let opts = CpAlsOptions::new(3)
                .max_iters(40)
                .tol(0.0)
                .seed(3)
                .pp(PpConfig::new().tol(1e9).every(3));
            let res = CpAls::new(opts).run(&t, &mut b).unwrap();
            assert_fired(&res, &[BreakdownKind::NonFiniteMttkrp, BreakdownKind::FitDivergence]);
            assert!(
                res.diagnostics.events.iter().any(|e| e.kind == BreakdownKind::FitDivergence
                    && e.recovery == RecoveryAction::None),
                "the garbage must first surface as a PP-induced divergence"
            );
            assert!(res.diagnostics.degraded, "the run must end in a divergence-degrade");
            res
        });
        check("fault-inject recoveries under PP", got, PINNED_PP_FAULTS);
    }

    const PINNED_FAULTS: (u64, u64) = (0xaf97723916c69f1e, 0x14868cc566e88803);
    const PINNED_PP_FAULTS: (u64, u64) = (0x9672a27da8a98cb5, 0x46a173a455ab7a07);
}

const PINNED_ALS: (u64, u64) = (0x10950e6c35501ecb, 0xe04d95901fde2044);
const PINNED_PP: (u64, u64) = (0x9bbf8bf0e5c7247f, 0x35020fd41d9b7845);
const PINNED_CKPT_RESUME: (u64, u64) = (0x10950e6c35501ecb, 0x81da47a6642c373a);
const PINNED_PP_CKPT_RESUME: (u64, u64) = (0x11bdf907401c438a, 0x2ac4e70738e6c3b1);
const PINNED_NCP: u64 = 0xacfe526f647ca1f3;
const PINNED_NCP_CONVERGED: u64 = 0x2062c60401d8a172;
