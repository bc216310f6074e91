//! The CP-ALS driver, and the alternating loop it shares with
//! nonnegative CP.
//!
//! One iteration performs, for each mode `n`:
//!
//! 1. `backend.begin_mode(n)` (memoization invalidation),
//! 2. `M^(n) <- MTTKRP(X, factors, n)` via the backend,
//! 3. `H^(n) <- hadamard_{i != n} W^(i)` with `W^(i) = U^(i)^T U^(i)`
//!    cached and updated incrementally,
//! 4. the update of `U^(n)` from `M^(n)` and `H^(n)`, by the configured
//!    [`UpdateRule`]:
//!    * [`UpdateRule::LeastSquares`] (CP-ALS, the default):
//!      `U^(n) <- M^(n) pinv(H^(n))`, then column-normalized into
//!      `lambda` (2-norm on the first iteration, max-norm afterwards —
//!      the standard practice that keeps factors well-scaled without
//!      re-shrinking converged columns);
//!    * [`UpdateRule::Multiplicative`] (nonnegative CP, Lee–Seung):
//!      `U^(n) <- U^(n) .* max(M^(n), 0) ./ (U^(n) H^(n) + 1e-12)`, which
//!      keeps a nonnegative start nonnegative on nonnegative data; no
//!      normalization, so `lambda` stays all ones,
//! 5. `W^(n) <- U^(n)^T U^(n)`.
//!
//! The fit `1 - ||X - M|| / ||X||` is computed per iteration at
//! `O(I_N R + R²)` extra cost using the last subiteration's MTTKRP
//! result — no extra pass over the tensor. It holds for both rules (with
//! all-ones `lambda` under the multiplicative one).
//!
//! # Resilience
//!
//! The driver never panics, spins, or returns a NaN-poisoned model on
//! hostile input. Malformed caller input is rejected up front with a
//! typed [`CpAlsError`]; numeric breakdowns mid-run are detected after
//! every mode update and repaired by an escalating sequence of recovery
//! policies:
//!
//! 1. **Tikhonov ridge re-solve** when the Gram system is numerically
//!    singular (condition estimate from the Jacobi eigenvalues the
//!    pseudoinverse already computed) or the dense solve fails;
//! 2. **rollback** to the last-good factor set plus seeded
//!    re-randomization of the offending factor, with all memoized
//!    backend intermediates invalidated (a NaN that reached a
//!    dimension-tree node would otherwise poison every later MTTKRP);
//! 3. **graceful degradation** once the rollback budget is exhausted:
//!    the best-so-far model is returned with `converged = false` and a
//!    diagnostic explaining why.
//!
//! An optional wall-clock budget ([`CpAlsOptions::time_budget`]) is
//! checked at every mode boundary so callers serving traffic get
//! best-so-far results instead of unbounded runs. Everything a detector
//! saw and every recovery taken is recorded in
//! [`CpResult::diagnostics`]. Both update rules run under all of it:
//! detectors, rollback, watchdog, checkpoints and trace are properties of
//! the loop, not of the rule. Pairwise perturbation is the one exception:
//! it is refused with the multiplicative rule, whose approximate sweeps
//! trail the exact trajectory (see [`CpAlsError::PpWithMultiplicative`]).
//!
//! # Structure
//!
//! The loop state — factors, Grams, λ, fit history, best fit, last-good
//! snapshot, rollback budget, stall flag, elapsed-time base, diagnostics
//! and timings — lives in one private `Session`, built fresh by
//! [`CpAls::run_from`] or from a [`CpCheckpoint`] by
//! [`CpAls::resume_from`] (both after the same input validation). A
//! checkpoint is a view of the session, so what is written and what a
//! resume restores cannot drift apart. Each mode's dense step (Hadamard,
//! the rule's update — solve/ridge and normalize/reseed, or the
//! multiplicative step — and the finiteness detectors) is one function
//! that returns the breakdown it saw, so the loop has a single breakdown
//! exit into `rollback`. Pairwise perturbation is a sweep
//! strategy over this loop: its controller, `PpCtl`, is called before
//! each iteration's MTTKRP phase (exact or approximate sweep) and at each
//! iteration boundary (arm, re-baseline, disarm). Checkpoints are written
//! on an iteration-count cadence only: a write disarms PP, so a
//! time-keyed write would make the trajectory depend on timing.

use crate::backend::MttkrpBackend;
use crate::checkpoint::{
    CheckpointConfig, CheckpointError, CheckpointStore, CheckpointView, CpCheckpoint,
};
use crate::diagnostics::{
    BreakdownEvent, BreakdownKind, RecoveryAction, RunDiagnostics, StopReason,
};
use crate::error::CpAlsError;
use crate::init::{init_factors, InitStrategy};
use crate::model::CpModel;
use adatm_dtree::PpState;
use adatm_linalg::{pinv::ridge_solve_gram, pinv::try_solve_gram, Mat};
use adatm_tensor::SparseTensor;
use std::time::{Duration, Instant};

/// Audit hook: panics when `v` violates its invariants, naming the CP-ALS
/// stage boundary where the corruption was detected.
#[cfg(feature = "audit")]
fn audit_stage(stage: &str, v: &dyn adatm_audit::Validate) {
    if let Err(e) = v.validate() {
        panic!("audit: {stage}: {e}");
    }
}

/// Condition-estimate threshold above which a Gram system is treated as
/// degenerate and re-solved with a ridge.
const COND_LIMIT: f64 = 1e12;

/// Relative ridge applied to a degenerate Gram system (scaled by the
/// largest eigenvalue magnitude, floored at `RIDGE_FLOOR`).
const RIDGE_REL: f64 = 1e-8;

/// Absolute floor for the Tikhonov ridge.
const RIDGE_FLOOR: f64 = 1e-12;

/// Division guard keeping the multiplicative update finite.
const MU_EPS: f64 = 1e-12;

/// Absolute fit drop between consecutive iterations treated as
/// divergence. Healthy ALS sweeps are monotone to rounding; a drop this
/// large means the trajectory has been corrupted.
const DIVERGENCE_DROP: f64 = 0.25;

/// Iterations of fit change below `STALL_EPS` before a stall event is
/// recorded (detection only — with `tol = 0` the caller asked for every
/// iteration to run).
const STALL_WINDOW: usize = 8;

/// Fit-change threshold for stall detection.
const STALL_EPS: f64 = 1e-13;

/// Per-column-block correction-skip threshold for pairwise-perturbation
/// sweeps, passed to [`adatm_dtree::PpState::set_skip_tol`]: blocks whose
/// factor delta is below this fraction of the baseline block norm are
/// skipped.
const PP_SKIP_TOL: f64 = 0.005;

/// Configuration for pairwise-perturbation (PP) approximate sweeps
/// ([`CpAlsOptions::pp`]).
///
/// Near convergence the driver snapshots the dimension-tree pair
/// intermediates at an exact sweep ([`adatm_dtree::PpState`]) and then
/// reconstructs each mode's MTTKRP perturbatively — no tensor traversal —
/// until a forced exact sweep re-anchors the trajectory. Entry, cadence,
/// and invalidation are the driver's responsibility:
///
/// * **enter** when the relative factor movement of a clean exact
///   iteration falls below [`PpConfig::tol`];
/// * **force an exact sweep** every [`PpConfig::every`] iterations
///   (keyed on the absolute iteration number so resumed runs agree), and
///   re-capture the baseline there if the factors drifted past `tol`;
/// * **exit** whenever any breakdown detector fires (ridge re-solve,
///   rollback, divergence — recoveries restore state the memoized
///   baseline no longer describes) and on every durable-checkpoint
///   write, so a run resumed from that checkpoint — which must rebuild
///   exact intermediates — stays bitwise-identical to the uninterrupted
///   one.
#[derive(Clone, Debug)]
pub struct PpConfig {
    /// Relative factor-delta norm below which approximate sweeps are
    /// entered (checked at the end of each clean exact iteration).
    pub tol: f64,
    /// Force an exact sweep on every iteration whose absolute index is a
    /// multiple of this cadence (`0` disables the cadence; `1` keeps
    /// every sweep exact, i.e. disables PP).
    pub every: usize,
}

impl PpConfig {
    /// Defaults: enter below 2% relative factor movement, exact sweep
    /// every 5 iterations.
    pub fn new() -> Self {
        PpConfig { tol: 0.02, every: 5 }
    }

    /// Sets the entry threshold on relative factor movement.
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the forced-exact-sweep cadence (0 disables, 1 disables PP).
    pub fn every(mut self, every: usize) -> Self {
        self.every = every;
        self
    }
}

impl Default for PpConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// How each mode's factor is updated from its MTTKRP
/// ([`CpAlsOptions::update`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UpdateRule {
    /// CP-ALS: the least-squares solve `U <- M pinv(H)`, with a ridge
    /// re-solve on a degenerate system and column normalization into λ.
    #[default]
    LeastSquares,
    /// Nonnegative CP by Lee–Seung multiplicative updates:
    /// `U <- U .* max(M, 0) ./ (U H + 1e-12)`, unnormalized, so λ stays
    /// all ones. The run rejects a negative tensor value
    /// ([`CpAlsError::NegativeTensor`]), a negative starting factor entry
    /// ([`CpAlsError::NegativeInit`]) and pairwise perturbation
    /// ([`CpAlsError::PpWithMultiplicative`]).
    Multiplicative,
}

/// Options for a CP-ALS run.
#[derive(Clone, Debug)]
pub struct CpAlsOptions {
    /// Decomposition rank `R`.
    pub rank: usize,
    /// Maximum number of outer iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the change in fit between iterations.
    pub tol: f64,
    /// Seed for the random factor initialization.
    pub seed: u64,
    /// Factor initialization strategy.
    pub init: InitStrategy,
    /// Optional wall-clock budget, checked at mode boundaries; on expiry
    /// the best-so-far model is returned with
    /// [`StopReason::TimeBudget`].
    pub time_budget: Option<Duration>,
    /// Maximum number of rollback recoveries before the run degrades
    /// gracefully (ridge re-solves are not counted — they are cheap,
    /// deterministic repairs that cannot loop).
    pub recovery_budget: usize,
    /// Drift threshold: when the backend supplies a calibrated
    /// per-iteration prediction and the measured kernel time per
    /// iteration exceeds `prediction * drift_factor`, a
    /// [`BreakdownKind::PredictionDrift`] diagnostic (and a
    /// `drift.warning` trace event) is emitted. `0.0` disables the
    /// check.
    pub drift_factor: f64,
    /// Optional durable-checkpoint config: when set, the driver writes a
    /// rotated, checksummed checkpoint at iteration boundaries on the
    /// configured cadence (and a final one on `TimeBudget` expiry), from
    /// which [`CpAls::resume_from`] continues bitwise-identically.
    pub checkpoint: Option<CheckpointConfig>,
    /// Optional pairwise-perturbation sweep config: when set, the driver
    /// replaces exact MTTKRP sweeps with memoized perturbative updates
    /// once the factors stop moving (see [`PpConfig`]).
    pub pp: Option<PpConfig>,
    /// The per-mode factor update (least squares unless set).
    pub update: UpdateRule,
}

impl CpAlsOptions {
    /// Defaults: 50 iterations, tolerance `1e-5`, seed 0, random init, no
    /// time budget, 8 rollback recoveries, least-squares updates.
    ///
    /// A rank of 0 is rejected with [`CpAlsError::ZeroRank`] when the
    /// solver runs.
    pub fn new(rank: usize) -> Self {
        CpAlsOptions {
            rank,
            max_iters: 50,
            tol: 1e-5,
            seed: 0,
            init: InitStrategy::Random,
            time_budget: None,
            recovery_budget: 8,
            drift_factor: 2.0,
            checkpoint: None,
            pp: None,
            update: UpdateRule::LeastSquares,
        }
    }

    /// Sets the iteration cap.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Sets the fit-change convergence tolerance (0 disables early stop).
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the initialization seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the initialization strategy.
    pub fn init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Sets the wall-clock budget (the watchdog checked at mode
    /// boundaries).
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Sets the rollback recovery budget.
    pub fn recovery_budget(mut self, budget: usize) -> Self {
        self.recovery_budget = budget;
        self
    }

    /// Sets the prediction-drift warning threshold (`0.0` disables).
    pub fn drift_factor(mut self, factor: f64) -> Self {
        self.drift_factor = factor;
        self
    }

    /// Enables durable checkpointing with the given config.
    pub fn checkpoint(mut self, cfg: CheckpointConfig) -> Self {
        self.checkpoint = Some(cfg);
        self
    }

    /// Enables pairwise-perturbation approximate sweeps with the given
    /// config.
    pub fn pp(mut self, cfg: PpConfig) -> Self {
        self.pp = Some(cfg);
        self
    }

    /// Sets the per-mode update rule.
    pub fn update(mut self, rule: UpdateRule) -> Self {
        self.update = rule;
        self
    }
}

/// Wall-clock dissection of a run (experiment E10).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Time in backend MTTKRP calls.
    pub mttkrp: Duration,
    /// Time in dense work: Grams, Hadamards, pseudoinverse solves,
    /// normalization.
    pub dense: Duration,
    /// Time computing the fit.
    pub fit: Duration,
    /// Time serializing and persisting checkpoints (zero when
    /// checkpointing is disabled). The bench suite gates this phase's
    /// overhead relative to the rest of the iteration.
    pub checkpoint: Duration,
}

impl PhaseTimings {
    /// Total measured time.
    pub fn total(&self) -> Duration {
        self.mttkrp + self.dense + self.fit + self.checkpoint
    }
}

/// Result of a CP-ALS run.
#[derive(Clone, Debug)]
pub struct CpResult {
    /// The decomposition.
    pub model: CpModel,
    /// Number of completed iterations.
    pub iters: usize,
    /// Fit after each iteration.
    pub fit_history: Vec<f64>,
    /// Whether the tolerance stop fired (vs. hitting `max_iters`).
    pub converged: bool,
    /// Phase timings over the whole run.
    pub timings: PhaseTimings,
    /// Breakdown events, recoveries taken, and the stop reason.
    pub diagnostics: RunDiagnostics,
    /// The final cached Gram matrices, exposed in fault-injection builds
    /// so the recovery tests can assert Gram/factor consistency after a
    /// degrade (every `grams[d]` must equal `factors[d].gram()`
    /// bitwise).
    #[cfg(feature = "fault-inject")]
    pub grams: Vec<Mat>,
}

impl CpResult {
    /// Fit after the final iteration (0 if no iterations ran).
    pub fn final_fit(&self) -> f64 {
        self.fit_history.last().copied().unwrap_or(0.0)
    }

    /// A compact human-readable run summary: iterations, stop reason,
    /// fit, phase timings, recoveries, and — when the backend supplied a
    /// calibrated prediction — predicted vs measured per-iteration time.
    pub fn trace_summary(&self) -> String {
        let mut s = format!(
            "iters={} stop={:?} fit={:.6} converged={} mttkrp={:.3}ms dense={:.3}ms fit_time={:.3}ms events={} recoveries={}",
            self.iters,
            self.diagnostics.stop,
            self.final_fit(),
            self.converged,
            self.timings.mttkrp.as_secs_f64() * 1e3,
            self.timings.dense.as_secs_f64() * 1e3,
            self.timings.fit.as_secs_f64() * 1e3,
            self.diagnostics.events.len(),
            self.diagnostics.recoveries,
        );
        if let (Some(pred), Some(meas)) =
            (self.diagnostics.predicted_iter_ns, self.diagnostics.measured_iter_ns)
        {
            s.push_str(&format!(
                " predicted_iter={:.0}ns measured_iter={:.0}ns ratio={:.2}",
                pred,
                meas,
                if pred > 0.0 { meas / pred } else { f64::NAN }
            ));
        }
        s
    }
}

/// Watchdog check shared by every stage boundary: when the budget has
/// expired, records the diagnostic (with the stage that detected it),
/// sets the stop reason, and tells the caller to break the run. Checking
/// after MTTKRP and after the dense phase — not just at the top of each
/// mode — bounds the overrun by a single stage rather than a whole
/// mode's worth of kernel work.
fn watchdog_expired(
    start: Instant,
    budget: Option<Duration>,
    iter: usize,
    mode: usize,
    stage: &'static str,
    diag: &mut RunDiagnostics,
) -> bool {
    let Some(budget) = budget else { return false };
    if start.elapsed() < budget {
        return false;
    }
    adatm_trace::event!(
        "watchdog.expired",
        iter: iter as u64,
        mode: mode as u64,
        stage: stage,
        budget_ns: budget.as_nanos() as u64,
        elapsed_ns: start.elapsed().as_nanos() as u64
    );
    diag.record(BreakdownEvent {
        iter,
        mode: Some(mode),
        kind: BreakdownKind::TimeBudgetExpired,
        recovery: RecoveryAction::None,
        recovery_time: Duration::ZERO,
    });
    diag.stop = StopReason::TimeBudget;
    true
}

/// Last-known-good solver state for rollback recoveries.
struct Snapshot {
    factors: Vec<Mat>,
    grams: Vec<Mat>,
    lambda: Vec<f64>,
}

/// The loop state of one run: everything an iteration hands to the next.
///
/// Built fresh by [`CpAls::run_from`] or restored from a checkpoint by
/// [`CpAls::resume_from`]. Everything the loop reads that is not
/// recomputed from the factors (the Grams are) round-trips through a
/// checkpoint, or a resumed trajectory would diverge from the
/// uninterrupted one.
struct Session {
    /// First iteration this run executes (non-zero when resumed).
    start_iter: usize,
    factors: Vec<Mat>,
    /// Cached Gram matrices `W^(d) = U^(d)^T U^(d)`.
    grams: Vec<Mat>,
    lambda: Vec<f64>,
    fit_history: Vec<f64>,
    best_fit: f64,
    last_good: Option<Snapshot>,
    rollbacks_left: usize,
    stall_recorded: bool,
    /// Wall-clock spent by the run this one resumes.
    elapsed_base_ns: u64,
    diag: RunDiagnostics,
    timings: PhaseTimings,
}

impl Session {
    fn fresh(factors: Vec<Mat>, rank: usize, recovery_budget: usize) -> Self {
        Session {
            start_iter: 0,
            grams: factors.iter().map(Mat::gram).collect(),
            factors,
            lambda: vec![1.0; rank],
            fit_history: Vec::new(),
            best_fit: f64::NEG_INFINITY,
            last_good: None,
            rollbacks_left: recovery_budget,
            stall_recorded: false,
            elapsed_base_ns: 0,
            diag: RunDiagnostics::default(),
            timings: PhaseTimings::default(),
        }
    }

    fn resume(ckpt: CpCheckpoint) -> Self {
        let last_good = ckpt.last_good.map(|(lambda, factors)| Snapshot {
            grams: factors.iter().map(Mat::gram).collect(),
            factors,
            lambda,
        });
        // Restoring the recovery count keeps the rollback `attempt`
        // counters — and so every reseed stream — aligned with the
        // uninterrupted trajectory.
        let diag = RunDiagnostics { recoveries: ckpt.recoveries, ..RunDiagnostics::default() };
        Session {
            start_iter: ckpt.next_iter,
            grams: ckpt.factors.iter().map(Mat::gram).collect(),
            factors: ckpt.factors,
            lambda: ckpt.lambda,
            fit_history: ckpt.fit_history,
            best_fit: ckpt.best_fit,
            last_good,
            rollbacks_left: ckpt.rollbacks_left,
            stall_recorded: ckpt.stall_recorded,
            elapsed_base_ns: ckpt.elapsed_ns,
            diag,
            timings: PhaseTimings::default(),
        }
    }

    /// Restores the FULL last-good snapshot — factors, Grams and λ
    /// together, so no consumer ever sees a factor/Gram pair that never
    /// coexisted. Returns `false` (state untouched) when none exists.
    fn restore_last_good(&mut self) -> bool {
        let Some(snap) = &self.last_good else { return false };
        self.factors.clone_from(&snap.factors);
        self.grams.clone_from(&snap.grams);
        self.lambda.clone_from(&snap.lambda);
        true
    }

    /// The fit `1 - ||X - M|| / ||X||` from the last subiteration: with
    /// every factor normalized and λ holding the last-updated mode's
    /// scales, `<X, M> = sum_r λ_r <M_last(:, r), U_last(:, r)>`. The
    /// identity needs the EXACT last-mode MTTKRP `m_last`.
    fn exact_fit(&self, m_last: &Mat, last: usize, xnorm2: f64, g: &mut Mat) -> f64 {
        let mut inner = 0.0;
        for (r, &l) in self.lambda.iter().enumerate() {
            inner += l * m_last.col_dot(&self.factors[last], r);
        }
        g.as_mut_slice().fill(1.0);
        for w in &self.grams {
            g.hadamard_assign(w);
        }
        let mnorm2 = g.weighted_quad(&self.lambda, &self.lambda).max(0.0);
        let resid2 = (xnorm2 - 2.0 * inner + mnorm2).max(0.0);
        if xnorm2 > 0.0 {
            1.0 - (resid2 / xnorm2).sqrt()
        } else {
            0.0
        }
    }

    /// Stall detector (detection only — the caller asked for every
    /// iteration): records one event once the fit has stopped moving
    /// for a full window.
    fn note_stall(&mut self, iter: usize) {
        if self.stall_recorded || self.fit_history.len() < STALL_WINDOW {
            return;
        }
        let win = &self.fit_history[self.fit_history.len() - STALL_WINDOW..];
        let spread = win.iter().fold(f64::NEG_INFINITY, |m, &f| m.max(f))
            - win.iter().fold(f64::INFINITY, |m, &f| m.min(f));
        if spread < STALL_EPS {
            self.stall_recorded = true;
            self.diag.record(BreakdownEvent {
                iter,
                mode: None,
                kind: BreakdownKind::FitStall,
                recovery: RecoveryAction::None,
                recovery_time: Duration::ZERO,
            });
        }
    }

    /// Writes one checkpoint generation of this session. Write failures
    /// are non-fatal: durability degrades (earlier generations stay
    /// intact), correctness does not, so the run records a
    /// [`BreakdownKind::CheckpointWriteFailed`] diagnostic and keeps
    /// iterating.
    fn write_checkpoint(&mut self, ck: &mut CkptCtx, seed: u64, next_iter: usize, start: Instant) {
        let t0 = Instant::now();
        let view = CheckpointView {
            seed,
            next_iter,
            lambda: &self.lambda,
            factors: &self.factors,
            fit_history: &self.fit_history,
            best_fit: self.best_fit,
            recoveries: self.diag.recoveries,
            rollbacks_left: self.rollbacks_left,
            stall_recorded: self.stall_recorded,
            elapsed_ns: self.elapsed_base_ns + start.elapsed().as_nanos() as u64,
            last_good: self.last_good.as_ref().map(|s| (s.lambda.as_slice(), s.factors.as_slice())),
        };
        if ck.store.write(&view).is_err() {
            self.diag.record(BreakdownEvent {
                iter: next_iter.saturating_sub(1),
                mode: None,
                kind: BreakdownKind::CheckpointWriteFailed,
                recovery: RecoveryAction::None,
                recovery_time: t0.elapsed(),
            });
        }
        self.timings.checkpoint += t0.elapsed();
    }
}

/// Live checkpointing state for one run: the open store plus its
/// iteration cadence.
struct CkptCtx {
    store: CheckpointStore,
    every_iters: usize, // 0: never on cadence
}

impl CkptCtx {
    /// Opens the configured store. Failing to open it is a hard, typed
    /// error at run start — a caller that asked for durability should
    /// not silently run without it.
    fn open(cfg: &CheckpointConfig) -> Result<Self, CpAlsError> {
        let store = cfg.build_store().map_err(CpAlsError::Checkpoint)?;
        // No cadence configured: checkpoint every iteration.
        Ok(CkptCtx { store, every_iters: cfg.every_iters.unwrap_or(1) })
    }

    /// Whether a checkpoint is due after completing `iter` (0-based).
    /// The iteration count is absolute, so a resumed run writes at the
    /// same boundaries the uninterrupted one would.
    fn due(&self, iter: usize) -> bool {
        self.every_iters > 0 && (iter + 1).is_multiple_of(self.every_iters)
    }
}

/// Relative factor movement between two factor sets:
/// `sqrt(sum_n ||cur^(n) - prev^(n)||^2 / sum_n ||cur^(n)||^2)`.
fn rel_factor_delta(prev: &[Mat], cur: &[Mat]) -> f64 {
    let mut dn = 0.0;
    let mut cn = 0.0;
    for (p, c) in prev.iter().zip(cur) {
        for (&a, &b) in p.as_slice().iter().zip(c.as_slice()) {
            let d = b - a;
            dn += d * d;
            cn += b * b;
        }
    }
    if cn > 0.0 {
        (dn / cn).sqrt()
    } else {
        0.0
    }
}

/// Pairwise-perturbation controller state for one run. The numeric
/// machinery lives in [`adatm_dtree::PpState`]; this owns the policy:
/// when to trust the memoized baseline and when to force exact sweeps.
/// The loop calls [`PpCtl::begin_iter`] before each iteration's MTTKRP
/// phase and [`PpCtl::end_iter`] at each completed iteration boundary.
struct PpCtl {
    cfg: PpConfig,
    /// Built lazily at the first entry (the symbolic pair analysis and
    /// memo buffers are only worth paying for once PP actually arms).
    state: Option<PpState>,
    /// Factors at the end of the previous completed iteration, for the
    /// entry threshold on relative movement (empty before the first).
    prev: Vec<Mat>,
    /// Whether approximate sweeps are currently enabled.
    armed: bool,
    /// `diag.events.len()` when the baseline was captured: any growth
    /// means a detector fired and the baseline no longer describes the
    /// live state.
    baseline_events: usize,
    /// Whether the previous iteration's MTTKRP phase was approximate
    /// (the backend's memoized intermediates are then stale).
    last_sweep_pp: bool,
    /// Per-mode PP sweep outputs.
    outs: Vec<Mat>,
    // Sweep-phase timing split, surfaced through RunDiagnostics.
    exact_ns: u128,
    exact_sweeps: u64,
    pp_ns: u128,
    pp_sweeps: u64,
    refreshes: u64,
}

impl PpCtl {
    /// A disarmed controller. A resumed run passes its restored factors:
    /// checkpoints are only written right after PP disarms (or while it
    /// never armed), so they are the movement reference an
    /// uninterrupted run would carry at this boundary.
    fn new(cfg: PpConfig, resumed: Option<&[Mat]>) -> Self {
        PpCtl {
            cfg,
            state: None,
            prev: resumed.map(<[Mat]>::to_vec).unwrap_or_default(),
            armed: false,
            baseline_events: 0,
            last_sweep_pp: false,
            outs: Vec::new(),
            exact_ns: 0,
            exact_sweeps: 0,
            pp_ns: 0,
            pp_sweeps: 0,
            refreshes: 0,
        }
    }

    /// Leaves approximate mode (no-op when not armed): the baseline is
    /// marked stale and a `pp.exit` trace event records why.
    fn disarm(&mut self, iter: usize, reason: &'static str) {
        if !self.armed {
            return;
        }
        self.armed = false;
        if let Some(st) = self.state.as_mut() {
            st.invalidate();
        }
        adatm_trace::event!("pp.exit", iter: iter as u64, reason: reason);
    }

    /// Decides whether iteration `iter`'s MTTKRP phase is approximate
    /// and, if so, runs the fused PP sweep into [`PpCtl::outs`]. Exact
    /// sweeps are forced on the configured cadence (absolute iteration
    /// index, so resumed runs agree), whenever any detector fired since
    /// the baseline was captured, and whenever the factors drifted past
    /// the entry threshold.
    fn begin_iter<B: MttkrpBackend + ?Sized>(
        &mut self,
        iter: usize,
        s: &mut Session,
        backend: &mut B,
    ) -> bool {
        if self.armed && s.diag.events.len() != self.baseline_events {
            // A recovery restored state the memoized baseline no longer
            // describes.
            self.disarm(iter, "recovery");
        }
        let cadence_exact = self.cfg.every > 0 && iter.is_multiple_of(self.cfg.every);
        let mut pp =
            self.armed && !cadence_exact && self.state.as_ref().is_some_and(PpState::is_fresh);
        // Validity guard: the perturbative expansion is only
        // second-order-accurate while the factors stay within the entry
        // threshold of the memoized baseline. Past it, force an exact
        // sweep — `end_iter` then re-captures the baseline, so drift is
        // bounded by `tol` for every approximate sweep regardless of the
        // cadence.
        if pp && self.state.as_mut().is_some_and(|st| st.baseline_drift(&s.factors) > self.cfg.tol)
        {
            pp = false;
        }
        if !pp && self.last_sweep_pp {
            // Back to exact sweeps: the backend's memoized intermediates
            // predate the PP factor updates.
            backend.reset();
        }
        self.last_sweep_pp = pp;
        let st = match self.state.as_mut() {
            Some(st) if pp => st,
            _ => return false,
        };
        let t0 = Instant::now();
        st.reset_sweep_stats();
        st.pp_sweep_into(&s.factors, &mut self.outs);
        let d = t0.elapsed();
        s.timings.mttkrp += d;
        self.pp_ns += d.as_nanos();
        self.pp_sweeps += 1;
        let stats = st.sweep_stats();
        adatm_trace::event!(
            "pp.sweep",
            iter: iter as u64,
            sweep_ns: d.as_nanos() as u64,
            blocks_applied: stats.applied,
            blocks_skipped: stats.skipped
        );
        true
    }

    /// Iteration-boundary bookkeeping: the sweep-phase timing split,
    /// movement tracking, and the arm / re-baseline decisions.
    /// `clean_exact` says the iteration was an exact sweep no detector
    /// fired on.
    fn end_iter(
        &mut self,
        iter: usize,
        tensor: &SparseTensor,
        s: &mut Session,
        clean_exact: bool,
        sweep_ns: u128,
        wrote_ckpt: bool,
    ) {
        if clean_exact {
            self.exact_ns += sweep_ns;
            self.exact_sweeps += 1;
        }
        if wrote_ckpt {
            // A durable checkpoint was just written; a run resumed from
            // it starts with exact intermediates and a disarmed
            // controller, so the uninterrupted trajectory must disarm
            // here too to stay bitwise-identical.
            self.disarm(iter, "checkpoint");
        } else if clean_exact && !self.armed {
            let rel = if self.prev.is_empty() {
                f64::INFINITY
            } else {
                rel_factor_delta(&self.prev, &s.factors)
            };
            if self.cfg.every != 1 && rel <= self.cfg.tol {
                // Enter approximate mode: capture the baseline at
                // exactly the factors this exact sweep produced.
                let rank = s.factors[0].ncols();
                let t0 = Instant::now();
                let st = self.state.get_or_insert_with(|| PpState::new(tensor, rank));
                st.set_skip_tol(PP_SKIP_TOL);
                st.refresh(tensor, &s.factors);
                if self.outs.len() != s.factors.len() {
                    self.outs = tensor.dims().iter().map(|&d| Mat::zeros(d, rank)).collect();
                }
                s.timings.mttkrp += t0.elapsed();
                self.refreshes += 1;
                self.armed = true;
                self.baseline_events = s.diag.events.len();
                adatm_trace::event!(
                    "pp.enter",
                    iter: iter as u64,
                    rel_delta: rel,
                    memo_bytes: st.memory_bytes() as u64
                );
            }
        } else if clean_exact {
            // Forced exact sweep while armed (cadence or drift guard):
            // re-capture the baseline only once the factors have drifted
            // past the entry threshold.
            if let Some(st) = self.state.as_mut() {
                if st.baseline_drift(&s.factors) > self.cfg.tol {
                    let t0 = Instant::now();
                    st.refresh(tensor, &s.factors);
                    s.timings.mttkrp += t0.elapsed();
                    self.refreshes += 1;
                    self.baseline_events = s.diag.events.len();
                }
            }
        }
        self.prev.clone_from(&s.factors);
    }

    /// The approximation broke the trajectory: drop back to exact sweeps
    /// and measure movement from the restored factors.
    fn on_divergence(&mut self, iter: usize, s: &Session) {
        self.disarm(iter, "divergence");
        self.prev.clone_from(&s.factors);
    }

    /// Copies the sweep-phase counters into the run's diagnostics.
    fn report(&self, diag: &mut RunDiagnostics) {
        diag.pp_sweeps = self.pp_sweeps;
        diag.pp_refreshes = self.refreshes;
        if self.pp_sweeps > 0 {
            diag.pp_sweep_ns = Some(self.pp_ns as f64 / self.pp_sweeps as f64);
        }
        if self.exact_sweeps > 0 {
            diag.exact_sweep_ns = Some(self.exact_ns as f64 / self.exact_sweeps as f64);
        }
    }
}

/// The input checks every CP solver over an MTTKRP backend shares: a
/// positive rank, at least two modes and finite tensor values.
pub(crate) fn check_input(tensor: &SparseTensor, rank: usize) -> Result<(), CpAlsError> {
    if rank == 0 {
        return Err(CpAlsError::ZeroRank);
    }
    if tensor.ndim() < 2 {
        return Err(CpAlsError::TooFewModes { ndim: tensor.ndim() });
    }
    if !tensor.vals().iter().all(|v| v.is_finite()) {
        return Err(CpAlsError::NonFiniteTensor);
    }
    Ok(())
}

/// `H^(n)`: the Hadamard product of every Gram but `mode`'s, into `h`.
fn hadamard_of_grams(
    s: &Session,
    h: &mut Mat,
    iter: usize,
    mode: usize,
) -> Result<(), BreakdownKind> {
    let t1 = Instant::now();
    h.as_mut_slice().fill(1.0);
    for (d, w) in s.grams.iter().enumerate() {
        if d != mode {
            h.hadamard_assign(w);
        }
    }
    adatm_trace::event!(
        "stage",
        iter: iter as u64,
        mode: mode as u64,
        stage: "gram",
        elapsed_ns: t1.elapsed().as_nanos() as u64
    );
    // Detector: a poisoned Gram system (possible only if a non-finite
    // factor slipped past an earlier detector or the Hadamard product
    // overflowed).
    if h.is_finite() {
        Ok(())
    } else {
        Err(BreakdownKind::NonFiniteGram)
    }
}

/// The multiplicative update `U <- U .* max(M, 0) ./ (U H + eps)`,
/// computed over the denominator's buffer. No normalization: λ is
/// untouched (all ones), and a column that reaches zero stays a valid
/// nonnegative fixed point, so nothing is reseeded.
fn multiplicative_step(
    s: &mut Session,
    m: &Mat,
    h: &Mat,
    iter: usize,
    mode: usize,
) -> Result<(), BreakdownKind> {
    let t_mu = Instant::now();
    let mut u = s.factors[mode].matmul(h);
    let old = s.factors[mode].as_slice();
    for ((x, &u0), &mv) in u.as_mut_slice().iter_mut().zip(old).zip(m.as_slice()) {
        *x = u0 * (mv.max(0.0) / (*x + MU_EPS));
    }
    // Detector: the updated factor went non-finite (overflow).
    if !u.is_finite() {
        return Err(BreakdownKind::NonFiniteFactor);
    }
    s.grams[mode] = u.gram();
    s.factors[mode] = u;
    adatm_trace::event!(
        "stage",
        iter: iter as u64,
        mode: mode as u64,
        stage: "mu",
        elapsed_ns: t_mu.elapsed().as_nanos() as u64
    );
    Ok(())
}

/// The CP-ALS solver.
#[derive(Clone, Debug)]
pub struct CpAls {
    opts: CpAlsOptions,
}

impl CpAls {
    /// Creates a solver with the given options.
    pub fn new(opts: CpAlsOptions) -> Self {
        CpAls { opts }
    }

    /// Runs CP-ALS on `tensor` with `backend`, starting from a seeded
    /// random initialization.
    ///
    /// Returns [`CpAlsError`] for malformed input (zero rank, too few
    /// modes, non-finite tensor values); numeric breakdowns during the
    /// run are recovered or degrade gracefully and are reported in
    /// [`CpResult::diagnostics`] instead.
    pub fn run<B: MttkrpBackend + ?Sized>(
        &self,
        tensor: &SparseTensor,
        backend: &mut B,
    ) -> Result<CpResult, CpAlsError> {
        let factors = init_factors(tensor, self.opts.rank, self.opts.seed, self.opts.init);
        self.run_from(tensor, backend, factors)
    }

    /// Runs CP-ALS from explicit initial factors (each `I_n x R`).
    ///
    /// Factor-shape mismatches and non-finite initial factors are
    /// rejected with a typed error; this entry point never panics on
    /// caller input.
    pub fn run_from<B: MttkrpBackend + ?Sized>(
        &self,
        tensor: &SparseTensor,
        backend: &mut B,
        factors: Vec<Mat>,
    ) -> Result<CpResult, CpAlsError> {
        self.validate(tensor, &factors)?;
        let session = Session::fresh(factors, self.opts.rank, self.opts.recovery_budget);
        self.run_inner(tensor, backend, session)
    }

    /// Resumes a run from a durable checkpoint (see
    /// [`CheckpointStore::load_latest`]), continuing **bitwise-identically**
    /// to an uninterrupted run with the same options: the restored fit
    /// history keeps the stall/divergence detectors from mistriggering,
    /// and the restored recovery counters keep every reseed RNG stream
    /// aligned. Gram matrices are recomputed from the restored factors
    /// (they are bitwise-pure functions of them).
    ///
    /// The checkpoint must match `tensor` (mode dimensions), the
    /// configured rank, and the configured seed — and, under the
    /// multiplicative rule, hold the all-ones λ only that rule writes (the
    /// file does not record the rule); disagreements return a typed
    /// [`CpAlsError::Checkpoint`] with [`CheckpointError::Mismatch`]
    /// inside.
    pub fn resume_from<B: MttkrpBackend + ?Sized>(
        &self,
        tensor: &SparseTensor,
        backend: &mut B,
        ckpt: CpCheckpoint,
    ) -> Result<CpResult, CpAlsError> {
        let rank = self.opts.rank;
        let mismatch = |what: String| CpAlsError::Checkpoint(CheckpointError::Mismatch { what });
        // The multiplicative rule never rescales, so every λ it writes is
        // all ones; anything else was written by a least-squares run.
        if self.opts.update == UpdateRule::Multiplicative {
            let unit = |l: &[f64]| l.iter().all(|&x| x == 1.0);
            if !unit(&ckpt.lambda) || ckpt.last_good.as_ref().is_some_and(|(l, _)| !unit(l)) {
                return Err(mismatch(
                    "checkpoint λ is not all ones: it was not written by a multiplicative-update run"
                        .to_string(),
                ));
            }
        }
        self.validate(tensor, &ckpt.factors).map_err(|e| match e {
            CpAlsError::FactorCountMismatch { expected, found } => {
                mismatch(format!("checkpoint has {found} modes, tensor has {expected}"))
            }
            CpAlsError::FactorShapeMismatch { mode, expected, found } => mismatch(format!(
                "factor {mode} is {} x {}, tensor and rank {} require {} x {}",
                found.0, found.1, expected.1, expected.0, expected.1
            )),
            e => e,
        })?;
        if ckpt.rank() != rank {
            return Err(mismatch(format!(
                "checkpoint rank {} vs requested rank {rank}",
                ckpt.rank()
            )));
        }
        if ckpt.seed != self.opts.seed {
            return Err(mismatch(format!(
                "checkpoint seed {} vs options seed {} — resume with the original seed \
                 for a bitwise-identical trajectory",
                ckpt.seed, self.opts.seed
            )));
        }
        // Rolled-back iterations consume an iteration index without
        // recording a fit, so the history may be shorter than the
        // counter — but never longer.
        if ckpt.fit_history.len() > ckpt.next_iter {
            return Err(mismatch(format!(
                "fit history has {} entries but the iteration counter is only {}",
                ckpt.fit_history.len(),
                ckpt.next_iter
            )));
        }
        if let Some((l, fs)) = &ckpt.last_good {
            let shape_ok = l.len() == rank
                && fs.len() == tensor.ndim()
                && fs.iter().zip(tensor.dims()).all(|(m, &d)| m.nrows() == d && m.ncols() == rank);
            if !shape_ok {
                return Err(mismatch("last-good snapshot shape mismatch".to_string()));
            }
            if !fs.iter().all(Mat::is_finite) || !l.iter().all(|v| v.is_finite()) {
                return Err(mismatch("last-good snapshot is non-finite".to_string()));
            }
        }
        self.run_inner(tensor, backend, Session::resume(ckpt))
    }

    /// Input validation shared by [`CpAls::run_from`] and
    /// [`CpAls::resume_from`]: the rule/PP combination, [`check_input`],
    /// the starting factor set's count, shapes and finiteness, and — for
    /// the multiplicative rule — the signs of the tensor's values and of
    /// the starting factors.
    fn validate(&self, tensor: &SparseTensor, factors: &[Mat]) -> Result<(), CpAlsError> {
        let n = tensor.ndim();
        let rank = self.opts.rank;
        if self.opts.update == UpdateRule::Multiplicative && self.opts.pp.is_some() {
            return Err(CpAlsError::PpWithMultiplicative);
        }
        check_input(tensor, rank)?;
        if factors.len() != n {
            return Err(CpAlsError::FactorCountMismatch { expected: n, found: factors.len() });
        }
        for (d, f) in factors.iter().enumerate() {
            if f.nrows() != tensor.dims()[d] || f.ncols() != rank {
                return Err(CpAlsError::FactorShapeMismatch {
                    mode: d,
                    expected: (tensor.dims()[d], rank),
                    found: (f.nrows(), f.ncols()),
                });
            }
            if !f.is_finite() {
                return Err(CpAlsError::NonFiniteInit { mode: d });
            }
        }
        if self.opts.update == UpdateRule::Multiplicative {
            if tensor.vals().iter().any(|&v| v < 0.0) {
                return Err(CpAlsError::NegativeTensor);
            }
            if let Some(mode) = factors.iter().position(|f| f.as_slice().iter().any(|&x| x < 0.0)) {
                return Err(CpAlsError::NegativeInit { mode });
            }
        }
        #[cfg(feature = "audit")]
        audit_stage("cp-als input tensor", tensor);
        Ok(())
    }

    /// The iteration loop behind [`CpAls::run_from`] (fresh session) and
    /// [`CpAls::resume_from`] (session restored from a checkpoint). Input
    /// validation has already happened in the callers.
    fn run_inner<B: MttkrpBackend + ?Sized>(
        &self,
        tensor: &SparseTensor,
        backend: &mut B,
        mut s: Session,
    ) -> Result<CpResult, CpAlsError> {
        let n = tensor.ndim();
        let rank = self.opts.rank;
        let budget = self.opts.time_budget;
        backend.reset();
        let start = Instant::now();
        let xnorm2 = tensor.fro_norm_sq();
        let mut m_buf = Mat::zeros(0, 0);
        // Reusable R x R work matrices: the Hadamard-of-Grams system and
        // the fit Gram. Allocated once; steady-state iterations perform
        // no dense-phase allocations beyond the factor solve itself.
        let mut h_buf = Mat::zeros(rank, rank);
        let mut g_buf = Mat::zeros(rank, rank);
        let mut converged = false;
        let mut iters = s.start_iter;
        // Checkpointing is pure observation of the loop state: enabling
        // it must not perturb the trajectory (the kill-and-resume tests
        // assert bitwise identity against checkpoint-free runs). The one
        // sanctioned interaction is with the PP controller: a checkpoint
        // write disarms it, keyed on the absolute iteration number, so a
        // resumed run (which restores exact state and must rebuild any
        // memo baseline) makes the same arm/sweep decisions at the same
        // iterations as the uninterrupted one.
        let mut ckpt = self.opts.checkpoint.as_ref().map(CkptCtx::open).transpose()?;
        let resumed = (s.start_iter > 0).then_some(s.factors.as_slice());
        let mut ppctl = self.opts.pp.clone().map(|cfg| PpCtl::new(cfg, resumed));
        // Drift-detector accounting: only iterations that completed
        // without any detector firing — and whose MTTKRP phase was an
        // exact sweep — measure what the cost model priced.
        let mut clean_kernel_ns: u128 = 0;
        let mut clean_iters: u64 = 0;
        // Visit modes in the backend's preferred order (for memoizing
        // backends: the tree's leaf order, so every intermediate is
        // computed exactly once per iteration). Any per-iteration
        // permutation is a valid ALS sweep.
        let order = backend.mode_order(n);
        debug_assert!({
            let mut o = order.clone();
            o.sort_unstable();
            o == (0..n).collect::<Vec<_>>()
        });
        let last = order[order.len() - 1];
        let _run_span = adatm_trace::span_guard!(
            "cpals.run",
            backend: backend.name(),
            rank: rank as u64,
            max_iters: self.opts.max_iters as u64,
            ndim: n as u64,
            nnz: tensor.nnz() as u64
        );

        'run: for iter in s.start_iter..self.opts.max_iters {
            let _iter_span = adatm_trace::span_guard!("cpals.iter", iter: iter as u64);
            let events_at_iter_start = s.diag.events.len();
            let iter_mttkrp0 = s.timings.mttkrp;
            let iter_dense0 = s.timings.dense;
            let pp_iter = ppctl.as_mut().is_some_and(|ctl| ctl.begin_iter(iter, &mut s, backend));
            let mut iteration_aborted = false;
            for &mode in &order {
                let _mode_span =
                    adatm_trace::span_guard!("cpals.mode", iter: iter as u64, mode: mode as u64);
                // Watchdog: callers serving traffic get best-so-far
                // results instead of unbounded runs. Checked at the top
                // of the mode and again after each kernel stage below, so
                // an overrun is bounded by one stage.
                if watchdog_expired(start, budget, iter, mode, "pre-mttkrp", &mut s.diag) {
                    break 'run;
                }
                let t0 = Instant::now();
                if !pp_iter {
                    backend.begin_mode(mode);
                    if m_buf.nrows() != tensor.dims()[mode] || m_buf.ncols() != rank {
                        m_buf = Mat::zeros(tensor.dims()[mode], rank);
                    }
                    backend.mttkrp_into(tensor, &s.factors, mode, &mut m_buf);
                }
                let d_mttkrp = t0.elapsed();
                s.timings.mttkrp += d_mttkrp;
                adatm_trace::event!(
                    "stage",
                    iter: iter as u64,
                    mode: mode as u64,
                    stage: "mttkrp",
                    elapsed_ns: d_mttkrp.as_nanos() as u64
                );
                // Re-check: a stalled or mispredicted MTTKRP must not let
                // the overrun grow past this one stage.
                if watchdog_expired(start, budget, iter, mode, "post-mttkrp", &mut s.diag) {
                    break 'run;
                }
                // On PP iterations the mode's MTTKRP was reconstructed
                // perturbatively at the top of the iteration; everything
                // downstream (solve, normalize, detectors) is identical.
                let m = match (pp_iter, ppctl.as_ref()) {
                    (true, Some(ctl)) => &ctl.outs[mode],
                    _ => &m_buf,
                };
                // The single breakdown exit: whatever the dense step's
                // detectors saw, the repair is a rollback to the
                // last-good state (or a graceful degrade once the budget
                // is spent).
                if let Err(kind) = self.update_mode(&mut s, m, &mut h_buf, iter, mode) {
                    if self.rollback(&mut s, kind, iter, mode, tensor, backend) {
                        // The recovery consumed this iteration slot;
                        // restart the sweep from the repaired state.
                        iteration_aborted = true;
                        break;
                    }
                    break 'run;
                }
                if let Some(st) = ppctl.as_mut().and_then(|c| c.state.as_mut()) {
                    st.note_factor_updated(mode);
                }
                #[cfg(feature = "audit")]
                audit_stage("updated factor", &s.factors[mode]);
                // Re-check: bound a dense-phase overrun by this stage too.
                if watchdog_expired(start, budget, iter, mode, "post-dense", &mut s.diag) {
                    break 'run;
                }
            }
            if iteration_aborted {
                continue;
            }

            // The fit identity needs the EXACT last-mode MTTKRP:
            // evaluated with the perturbative reconstruction, the
            // `xnorm2 - 2*inner + mnorm2` cancellation amplifies the
            // approximation error catastrophically near convergence. So
            // approximate sweeps carry the last exactly-measured fit
            // forward and the next forced exact sweep re-measures; the
            // fit-driven detectors below treat carried entries
            // accordingly.
            let t2 = Instant::now();
            let fit = if pp_iter {
                s.fit_history.last().copied().unwrap_or(0.0)
            } else {
                s.exact_fit(&m_buf, last, xnorm2, &mut g_buf)
            };
            let d_fit = t2.elapsed();
            s.timings.fit += d_fit;
            adatm_trace::event!(
                "stage",
                iter: iter as u64,
                stage: "fit",
                elapsed_ns: d_fit.as_nanos() as u64,
                fit: fit
            );

            let prev = s.fit_history.last().copied();
            // Detector: fit divergence. Healthy sweeps are monotone to
            // rounding; a sharp drop or a non-finite fit means the state
            // is corrupted beyond local repair. Restore the best earlier
            // state. Carried (PP) fit entries can never trigger this — a
            // PP-broken trajectory surfaces at the next forced exact
            // sweep, while the controller is still armed.
            let pp_induced = pp_iter || ppctl.as_ref().is_some_and(|c| c.armed);
            if !fit.is_finite() || prev.is_some_and(|p| fit < p - DIVERGENCE_DROP) {
                let rt = Instant::now();
                s.restore_last_good();
                // When the approximation itself broke the trajectory,
                // the restore discards the approximate sweeps since the
                // last good state and the run continues on exact sweeps
                // (recorded as detection-only — the restore is the
                // repair). Otherwise the run stops on the restored state.
                s.diag.record(BreakdownEvent {
                    iter,
                    mode: None,
                    kind: BreakdownKind::FitDivergence,
                    recovery: if pp_induced {
                        RecoveryAction::None
                    } else {
                        RecoveryAction::Degrade
                    },
                    recovery_time: rt.elapsed(),
                });
                if pp_induced {
                    if let Some(ctl) = ppctl.as_mut() {
                        ctl.on_divergence(iter, &s);
                    }
                    continue;
                }
                s.diag.stop = StopReason::Diverged;
                s.diag.degraded = true;
                break;
            }

            iters = iter + 1;
            s.fit_history.push(fit);
            // Stall detection is suppressed while PP is active: carried
            // fit entries make the window artificially flat.
            if !pp_induced && self.opts.tol == 0.0 {
                s.note_stall(iter);
            }
            // Never snapshot on an approximate sweep: the carried fit
            // says nothing about the post-sweep factors, and last_good
            // is the state a divergence recovery falls back to — it must
            // only ever hold exactly-measured iterates.
            if !pp_iter && fit >= s.best_fit {
                s.best_fit = fit;
                s.last_good = Some(Snapshot {
                    factors: s.factors.clone(),
                    grams: s.grams.clone(),
                    lambda: s.lambda.clone(),
                });
            }
            // Iteration-boundary checkpoint. Aborted (rolled-back)
            // iterations never reach this point, in either an
            // uninterrupted or a resumed run.
            let wrote_ckpt = match ckpt.as_mut() {
                Some(ck) if ck.due(iter) => {
                    s.write_checkpoint(ck, self.opts.seed, iter + 1, start);
                    true
                }
                _ => false,
            };
            // Clean-iteration kernel accounting for the drift detector:
            // recoveries re-do work the model never priced, and PP
            // sweeps run a kernel class the exact prediction does not
            // cover — both would make an honest prediction look
            // drifted.
            let clean_exact = s.diag.events.len() == events_at_iter_start && !pp_iter;
            let iter_sweep_ns = (s.timings.mttkrp - iter_mttkrp0).as_nanos();
            if clean_exact {
                clean_kernel_ns += iter_sweep_ns + (s.timings.dense - iter_dense0).as_nanos();
                clean_iters += 1;
            }
            if let Some(ctl) = ppctl.as_mut() {
                ctl.end_iter(iter, tensor, &mut s, clean_exact, iter_sweep_ns, wrote_ckpt);
            }
            // Convergence is only ever declared from an exactly-measured
            // fit: on approximate sweeps `fit` is the carried previous
            // entry and the difference would be spuriously zero.
            if let Some(p) = prev {
                if !pp_iter && self.opts.tol > 0.0 && (fit - p).abs() < self.opts.tol {
                    converged = true;
                    s.diag.stop = StopReason::Converged;
                    break;
                }
            }
        }

        // Durability on watchdog expiry: the loop above only checkpoints
        // at iteration boundaries it completed, so a time-budget stop
        // mid-iteration would otherwise lose everything since the last
        // cadence hit. Persist the best-so-far state before returning.
        if s.diag.stop == StopReason::TimeBudget {
            if let Some(ck) = ckpt.as_mut() {
                s.write_checkpoint(ck, self.opts.seed, iters, start);
            }
        }

        // A degraded run may still hold non-finite working state if no
        // last-good snapshot existed; the rollback path guarantees the
        // factors it leaves behind are finite, so this is belt and
        // braces for the model we hand back.
        debug_assert!(s.factors.iter().all(Mat::is_finite));
        s.diag.elapsed = start.elapsed();
        s.diag.predicted_iter_ns = backend.predicted_iter_ns();
        if let Some(ctl) = ppctl.as_ref() {
            ctl.report(&mut s.diag);
        }
        if clean_iters > 0 {
            let measured = clean_kernel_ns as f64 / clean_iters as f64;
            self.check_drift(&mut s.diag, measured, iters);
        }
        #[cfg(feature = "audit")]
        adatm_audit::validate_factors(&s.factors, tensor.dims(), rank)
            .unwrap_or_else(|e| panic!("audit: final factor set: {e}"));
        Ok(CpResult {
            model: CpModel { lambda: s.lambda, factors: s.factors },
            iters,
            fit_history: s.fit_history,
            converged,
            timings: s.timings,
            diagnostics: s.diag,
            #[cfg(feature = "fault-inject")]
            grams: s.grams,
        })
    }

    /// One mode's dense step: the Hadamard of the other modes' Grams,
    /// the configured rule's update, and the finiteness detectors around
    /// them. On success the session holds the new factor, its Gram and
    /// its scales; on a breakdown the detected kind is returned for the
    /// caller's single rollback exit. Dense time covers everything after
    /// the MTTKRP check, a breakdown included, and is closed by one
    /// `dense` stage event.
    fn update_mode(
        &self,
        s: &mut Session,
        m: &Mat,
        h: &mut Mat,
        iter: usize,
        mode: usize,
    ) -> Result<(), BreakdownKind> {
        // Detector: a poisoned MTTKRP output. Nothing downstream of a
        // NaN here is salvageable for this mode. (Runs before the audit
        // hook: a non-finite output is a recoverable breakdown here, not
        // an invariant violation.)
        if !m.is_finite() {
            return Err(BreakdownKind::NonFiniteMttkrp);
        }
        #[cfg(feature = "audit")]
        audit_stage("mttkrp output", m);
        let t1 = Instant::now();
        let step = hadamard_of_grams(s, h, iter, mode).and_then(|()| match self.opts.update {
            UpdateRule::LeastSquares => self.solve_mode(s, m, h, iter, mode),
            UpdateRule::Multiplicative => multiplicative_step(s, m, h, iter, mode),
        });
        let d_dense = t1.elapsed();
        s.timings.dense += d_dense;
        adatm_trace::event!(
            "stage",
            iter: iter as u64,
            mode: mode as u64,
            stage: "dense",
            elapsed_ns: d_dense.as_nanos() as u64
        );
        step
    }

    /// The least-squares update: the solve (with a ridge re-solve on a
    /// degenerate or failed system), then column normalization with
    /// zero-column reseeding.
    fn solve_mode(
        &self,
        s: &mut Session,
        m: &Mat,
        h: &Mat,
        iter: usize,
        mode: usize,
    ) -> Result<(), BreakdownKind> {
        let t_solve = Instant::now();
        let mut u = match try_solve_gram(m, h) {
            Ok((u, info)) if info.rank_deficient() || info.cond() > COND_LIMIT => {
                // Detector: degenerate Gram system, condition estimate
                // read straight off the Jacobi eigenvalues the
                // pseudoinverse computed. Recovery: Tikhonov ridge
                // re-solve.
                let rt = Instant::now();
                let ridge = (info.max_abs_eig * RIDGE_REL).max(RIDGE_FLOOR);
                let repaired = ridge_solve_gram(m, h, ridge).ok();
                s.diag.record(BreakdownEvent {
                    iter,
                    mode: Some(mode),
                    kind: BreakdownKind::SingularGram,
                    recovery: if repaired.is_some() {
                        RecoveryAction::RidgeResolve { ridge }
                    } else {
                        RecoveryAction::None
                    },
                    recovery_time: rt.elapsed(),
                });
                repaired.unwrap_or(u)
            }
            Ok((u, _)) => u,
            Err(_) => {
                // Detector: the dense solve itself failed. Recovery:
                // ridge re-solve; if even that fails, roll back.
                let rt = Instant::now();
                let scale = (0..self.opts.rank).map(|r| h.get(r, r).abs()).fold(0.0_f64, f64::max);
                let ridge = (scale * RIDGE_REL).max(RIDGE_FLOOR);
                let u = ridge_solve_gram(m, h, ridge).map_err(|_| BreakdownKind::SolveFailed)?;
                s.diag.record(BreakdownEvent {
                    iter,
                    mode: Some(mode),
                    kind: BreakdownKind::SolveFailed,
                    recovery: RecoveryAction::RidgeResolve { ridge },
                    recovery_time: rt.elapsed(),
                });
                u
            }
        };
        adatm_trace::event!(
            "stage",
            iter: iter as u64,
            mode: mode as u64,
            stage: "solve",
            elapsed_ns: t_solve.elapsed().as_nanos() as u64
        );

        let t_norm = Instant::now();
        let lambda = if iter == 0 { u.normalize_cols() } else { u.normalize_cols_max() };
        // Guard: a zero column (rank deficiency) would poison the model;
        // re-seed it with noise so ALS can recover.
        let mut reseeded = 0;
        for (r, &l) in lambda.iter().enumerate() {
            if l == 0.0 {
                let noise = Mat::random(u.nrows(), 1, self.opts.seed ^ 0xdead ^ r as u64);
                for i in 0..u.nrows() {
                    u.set(i, r, noise.get(i, 0));
                }
                reseeded += 1;
            }
        }
        if reseeded > 0 {
            s.diag.record(BreakdownEvent {
                iter,
                mode: Some(mode),
                kind: BreakdownKind::ZeroColumns,
                recovery: RecoveryAction::ReseedColumns { reseeded_cols: reseeded },
                recovery_time: Duration::ZERO,
            });
        }
        // Detector: the updated factor or its scales went non-finite
        // despite a finite system (overflow).
        if !u.is_finite() || !lambda.iter().all(|l| l.is_finite()) {
            return Err(BreakdownKind::NonFiniteFactor);
        }
        s.lambda = lambda;
        s.grams[mode] = u.gram();
        s.factors[mode] = u;
        adatm_trace::event!(
            "stage",
            iter: iter as u64,
            mode: mode as u64,
            stage: "normalize",
            elapsed_ns: t_norm.elapsed().as_nanos() as u64
        );
        Ok(())
    }

    /// Rollback recovery: restore the last-good factor set (or reseed
    /// everything if no good state exists yet), re-randomize the
    /// offending mode, and invalidate all memoized backend state.
    ///
    /// Returns `true` if the run should continue with the repaired state
    /// and `false` when the rollback budget is exhausted — in which case
    /// the state has been restored to the best-so-far model and the run
    /// must degrade gracefully.
    fn rollback<B: MttkrpBackend + ?Sized>(
        &self,
        s: &mut Session,
        kind: BreakdownKind,
        iter: usize,
        mode: usize,
        tensor: &SparseTensor,
        backend: &mut B,
    ) -> bool {
        let rt = Instant::now();
        let rank = self.opts.rank;
        let attempt = s.diag.recoveries as u64;
        let degrade = s.rollbacks_left == 0;
        if !s.restore_last_good() {
            // No good state yet: reseed every factor from a
            // recovery-derived seed so the restart is deterministic but
            // different from the poisoned trajectory.
            let seed = self.opts.seed ^ 0x5eed_0000 ^ (attempt + 1);
            for (d, f) in s.factors.iter_mut().enumerate() {
                *f = Mat::random(tensor.dims()[d], rank, seed ^ ((d as u64) << 16));
            }
            s.grams = s.factors.iter().map(Mat::gram).collect();
            s.lambda = vec![1.0; rank];
        }
        if degrade {
            s.diag.record(BreakdownEvent {
                iter,
                mode: Some(mode),
                kind,
                recovery: RecoveryAction::Degrade,
                recovery_time: rt.elapsed(),
            });
            s.diag.stop = StopReason::Degraded;
            s.diag.degraded = true;
            backend.reset();
            return false;
        }
        s.rollbacks_left -= 1;
        // Re-randomize the offending mode so the deterministic re-sweep
        // does not just reproduce the breakdown.
        let reseed =
            self.opts.seed ^ 0xbad0_0000 ^ ((iter as u64) << 24) ^ ((mode as u64) << 8) ^ attempt;
        s.factors[mode] = Mat::random(tensor.dims()[mode], rank, reseed);
        s.grams[mode] = s.factors[mode].gram();
        // Memoized intermediates may hold the poisoned values; flush
        // everything.
        backend.reset();
        s.diag.record(BreakdownEvent {
            iter,
            mode: Some(mode),
            kind,
            recovery: RecoveryAction::Rollback { reseeded_cols: rank },
            recovery_time: rt.elapsed(),
        });
        true
    }

    /// Drift detector: with a calibrated backend, compares its
    /// per-iteration prediction against the `measured` kernel time
    /// (MTTKRP + dense, the phases the model prices) averaged over clean
    /// exact iterations only. Iterations that ran recoveries (ridge
    /// re-solves, rollback re-dos) or approximate PP sweeps spend time
    /// the model never priced and would fake a drift. A large excess on
    /// clean iterations means the profile is stale or the model
    /// mispriced this tensor.
    fn check_drift(&self, diag: &mut RunDiagnostics, measured: f64, iters: usize) {
        diag.measured_iter_ns = Some(measured);
        let Some(predicted) = diag.predicted_iter_ns else { return };
        let factor = self.opts.drift_factor;
        adatm_trace::event!(
            "drift.check",
            predicted_ns: predicted,
            measured_ns: measured,
            factor: factor
        );
        if factor > 0.0 && predicted > 0.0 && measured > predicted * factor {
            adatm_trace::event!(
                "drift.warning",
                predicted_ns: predicted,
                measured_ns: measured,
                ratio: measured / predicted,
                factor: factor
            );
            diag.record(BreakdownEvent {
                iter: iters - 1,
                mode: None,
                kind: BreakdownKind::PredictionDrift,
                recovery: RecoveryAction::None,
                recovery_time: Duration::ZERO,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{all_backends, AdaptiveBackend, CooBackend, CsfBackend, DtreeBackend};
    use adatm_tensor::gen::{dense_low_rank, low_rank_tensor, zipf_tensor};

    #[test]
    fn recovers_noiseless_low_rank_tensor() {
        let truth = dense_low_rank(&[12, 14, 10], 3, 0.0, 11);
        let mut backend = CooBackend::new(&truth.tensor);
        let res = CpAls::new(CpAlsOptions::new(3).max_iters(60).seed(5))
            .run(&truth.tensor, &mut backend)
            .unwrap();
        assert!(res.final_fit() > 0.99, "fit {} after {} iters", res.final_fit(), res.iters);
    }

    #[test]
    fn fit_history_is_essentially_monotone() {
        let truth = low_rank_tensor(&[20, 25, 15, 18], 4, 2_000, 0.05, 3);
        let mut backend = DtreeBackend::balanced_binary(&truth.tensor, 4);
        let res = CpAls::new(CpAlsOptions::new(4).max_iters(25).tol(0.0).seed(1))
            .run(&truth.tensor, &mut backend)
            .unwrap();
        assert_eq!(res.iters, 25);
        for w in res.fit_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "fit regressed: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn all_backends_converge_to_same_fit() {
        let truth = low_rank_tensor(&[18, 22, 16, 14], 3, 1_500, 0.01, 8);
        let t = &truth.tensor;
        let opts = CpAlsOptions::new(3).max_iters(15).tol(0.0).seed(42);
        let mut fits = Vec::new();
        for mut b in all_backends(t, 3) {
            let res = CpAls::new(opts.clone()).run(t, &mut b).unwrap();
            fits.push((b.name(), b.mode_order(4), res.final_fit()));
        }
        // Backends sharing the natural mode order must match to rounding;
        // a backend with a permuted sweep order (the adaptive planner may
        // reorder) takes a different but equally valid ALS trajectory.
        let natural: Vec<usize> = (0..4).collect();
        let baseline = fits[0].2;
        for (name, order, fit) in &fits {
            if *order == natural {
                assert!((fit - baseline).abs() < 1e-8, "{name} fit {fit} differs from {baseline}");
            } else {
                assert!(
                    (fit - baseline).abs() < 0.05,
                    "{name} (permuted order) fit {fit} far from {baseline}"
                );
            }
        }
    }

    #[test]
    fn reported_fit_matches_model_fit_to() {
        let truth = low_rank_tensor(&[15, 20, 12], 2, 800, 0.1, 9);
        let mut backend = CsfBackend::new(&truth.tensor);
        let res = CpAls::new(CpAlsOptions::new(2).max_iters(10).tol(0.0).seed(7))
            .run(&truth.tensor, &mut backend)
            .unwrap();
        let direct = res.model.fit_to(&truth.tensor);
        assert!(
            (res.final_fit() - direct).abs() < 1e-8,
            "loop fit {} vs direct {}",
            res.final_fit(),
            direct
        );
    }

    #[test]
    fn convergence_stop_fires() {
        let truth = dense_low_rank(&[10, 10, 10], 2, 0.0, 2);
        let mut backend = CooBackend::new(&truth.tensor);
        let res = CpAls::new(CpAlsOptions::new(2).max_iters(200).tol(1e-7).seed(3))
            .run(&truth.tensor, &mut backend)
            .unwrap();
        assert!(res.converged, "should converge well before 200 iterations");
        assert!(res.iters < 200);
        assert_eq!(res.diagnostics.stop, StopReason::Converged);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = zipf_tensor(&[15, 18, 12], 500, &[0.5; 3], 6);
        let opts = CpAlsOptions::new(3).max_iters(5).tol(0.0).seed(77);
        let mut b1 = CooBackend::new(&t);
        let mut b2 = CooBackend::with_parallel(&t, false);
        let r1 = CpAls::new(opts.clone()).run(&t, &mut b1).unwrap();
        let r2 = CpAls::new(opts).run(&t, &mut b2).unwrap();
        // Parallel and sequential COO sum in different orders, so allow
        // floating-point slack but require the same trajectory.
        for (a, b) in r1.fit_history.iter().zip(r2.fit_history.iter()) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn timings_cover_phases() {
        let truth = low_rank_tensor(&[25, 25, 25], 3, 2_000, 0.0, 5);
        let mut backend = AdaptiveBackend::plan(&truth.tensor, 3);
        let res = CpAls::new(CpAlsOptions::new(3).max_iters(5).tol(0.0))
            .run(&truth.tensor, &mut backend)
            .unwrap();
        assert!(res.timings.mttkrp > Duration::ZERO);
        assert!(res.timings.dense > Duration::ZERO);
        assert!(res.timings.total() > Duration::ZERO);
    }

    #[test]
    fn run_from_accepts_custom_init() {
        let truth = dense_low_rank(&[12, 14, 10], 2, 0.0, 4);
        let t = &truth.tensor;
        let mut backend = CooBackend::new(t);
        // Initialize at the ground truth: fit should be ~1 after one sweep.
        let init = truth.factors.clone();
        let res = CpAls::new(CpAlsOptions::new(2).max_iters(2).tol(0.0))
            .run_from(t, &mut backend, init)
            .unwrap();
        assert!(res.final_fit() > 0.999, "fit {}", res.final_fit());
    }

    #[test]
    fn run_from_rejects_bad_rank() {
        let t = zipf_tensor(&[10, 10], 50, &[0.0; 2], 1);
        let mut backend = CooBackend::new(&t);
        let bad = vec![Mat::zeros(10, 3), Mat::zeros(10, 3)];
        let err = CpAls::new(CpAlsOptions::new(2)).run_from(&t, &mut backend, bad).unwrap_err();
        assert!(matches!(err, CpAlsError::FactorShapeMismatch { mode: 0, .. }));
    }

    #[test]
    fn run_rejects_malformed_input_without_panicking() {
        let t = zipf_tensor(&[10, 12], 50, &[0.0; 2], 1);
        let mut backend = CooBackend::new(&t);
        // Zero rank.
        let err = CpAls::new(CpAlsOptions::new(0)).run(&t, &mut backend).unwrap_err();
        assert_eq!(err, CpAlsError::ZeroRank);
        // Wrong factor count.
        let err = CpAls::new(CpAlsOptions::new(2))
            .run_from(&t, &mut backend, vec![Mat::zeros(10, 2)])
            .unwrap_err();
        assert_eq!(err, CpAlsError::FactorCountMismatch { expected: 2, found: 1 });
        // Non-finite initial factor.
        let mut bad = Mat::zeros(10, 2);
        bad.set(3, 1, f64::NAN);
        let err = CpAls::new(CpAlsOptions::new(2))
            .run_from(&t, &mut backend, vec![bad, Mat::zeros(12, 2)])
            .unwrap_err();
        assert_eq!(err, CpAlsError::NonFiniteInit { mode: 0 });
    }

    #[test]
    fn run_rejects_non_finite_tensor() {
        let mut t = zipf_tensor(&[8, 9], 40, &[0.0; 2], 2);
        t.vals_mut()[7] = f64::NAN;
        let mut backend = CooBackend::new(&t);
        let err = CpAls::new(CpAlsOptions::new(2)).run(&t, &mut backend).unwrap_err();
        assert_eq!(err, CpAlsError::NonFiniteTensor);
    }

    #[test]
    fn clean_run_reports_clean_diagnostics() {
        let truth = dense_low_rank(&[10, 11, 9], 2, 0.0, 3);
        let mut backend = CooBackend::new(&truth.tensor);
        let res = CpAls::new(CpAlsOptions::new(2).max_iters(10).seed(1))
            .run(&truth.tensor, &mut backend)
            .unwrap();
        assert_eq!(res.diagnostics.recoveries, 0);
        assert!(!res.diagnostics.degraded);
        assert!(res.diagnostics.elapsed > Duration::ZERO);
    }

    #[test]
    fn zero_max_iters_returns_finite_empty_run() {
        let t = zipf_tensor(&[10, 10, 10], 100, &[0.0; 3], 4);
        let mut backend = CooBackend::new(&t);
        let res = CpAls::new(CpAlsOptions::new(3).max_iters(0)).run(&t, &mut backend).unwrap();
        assert_eq!(res.iters, 0);
        assert!(res.fit_history.is_empty());
        assert!(!res.converged);
        assert!(res.model.factors.iter().all(Mat::is_finite));
        assert_eq!(res.diagnostics.stop, StopReason::MaxIters);
    }

    fn multiplicative(rank: usize) -> CpAlsOptions {
        CpAlsOptions::new(rank).update(UpdateRule::Multiplicative)
    }

    #[test]
    fn multiplicative_rule_fits_nonnegative_low_rank_data() {
        let t = dense_low_rank(&[10, 12, 8], 3, 0.0, 5).tensor;
        let mut backend = CooBackend::new(&t);
        let res = CpAls::new(multiplicative(3).max_iters(300).tol(0.0).seed(2))
            .run(&t, &mut backend)
            .unwrap();
        assert!(res.final_fit() > 0.95, "fit {}", res.final_fit());
    }

    #[test]
    fn multiplicative_rule_keeps_factors_nonnegative_and_lambda_one() {
        let t = zipf_tensor(&[15, 18, 12, 10], 400, &[0.5; 4], 7);
        let mut backend = DtreeBackend::balanced_binary(&t, 4);
        let res = CpAls::new(multiplicative(4).max_iters(10).tol(0.0).seed(1))
            .run(&t, &mut backend)
            .unwrap();
        for (d, f) in res.model.factors.iter().enumerate() {
            assert!(
                f.as_slice().iter().all(|&x| x >= 0.0 && x.is_finite()),
                "mode {d} has negative/non-finite entries"
            );
        }
        assert!(res.model.lambda.iter().all(|&l| l == 1.0), "{:?}", res.model.lambda);
    }

    #[test]
    fn multiplicative_fit_is_monotone_nondecreasing() {
        // Multiplicative updates are monotone in the objective for
        // nonnegative data.
        let t = dense_low_rank(&[8, 9, 7], 2, 0.0, 3).tensor;
        let mut backend = CooBackend::new(&t);
        let res = CpAls::new(multiplicative(2).max_iters(40).tol(0.0).seed(4))
            .run(&t, &mut backend)
            .unwrap();
        for w in res.fit_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-8, "fit regressed: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn backends_agree_on_multiplicative_trajectory() {
        let t = zipf_tensor(&[12, 14, 10, 8], 300, &[0.6; 4], 9);
        let opts = multiplicative(3).max_iters(8).tol(0.0).seed(11);
        let a = CpAls::new(opts.clone()).run(&t, &mut CooBackend::new(&t)).unwrap();
        let b = CpAls::new(opts).run(&t, &mut DtreeBackend::balanced_binary(&t, 3)).unwrap();
        assert_eq!(a.fit_history.len(), b.fit_history.len());
        for (x, y) in a.fit_history.iter().zip(b.fit_history.iter()) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn multiplicative_rule_rejects_bad_input_with_typed_errors() {
        let t = SparseTensor::from_entries(vec![3, 3], &[(vec![0, 0], -1.0), (vec![1, 2], 2.0)]);
        let err = CpAls::new(multiplicative(2)).run(&t, &mut CooBackend::new(&t)).unwrap_err();
        assert_eq!(err, CpAlsError::NegativeTensor);
        // The least-squares rule accepts the same tensor.
        assert!(CpAls::new(CpAlsOptions::new(2)).run(&t, &mut CooBackend::new(&t)).is_ok());

        let t = zipf_tensor(&[10, 12, 9], 200, &[0.3; 3], 2);
        let mut start = init_factors(&t, 2, 0, InitStrategy::Random);
        start[1].set(4, 1, -0.5);
        let err = CpAls::new(multiplicative(2))
            .run_from(&t, &mut CooBackend::new(&t), start)
            .unwrap_err();
        assert_eq!(err, CpAlsError::NegativeInit { mode: 1 });
        // An orthonormal range basis has entries of both signs.
        let err = CpAls::new(multiplicative(2).init(InitStrategy::RandomizedRange))
            .run(&t, &mut CooBackend::new(&t))
            .unwrap_err();
        assert!(matches!(err, CpAlsError::NegativeInit { .. }), "{err:?}");
        // Pairwise perturbation lags multiplicative updates; the pair is
        // refused.
        let err = CpAls::new(multiplicative(2).pp(PpConfig::new()))
            .run(&t, &mut CooBackend::new(&t))
            .unwrap_err();
        assert_eq!(err, CpAlsError::PpWithMultiplicative);
    }

    #[test]
    fn zero_time_budget_expires_on_iteration_zero() {
        let t = zipf_tensor(&[10, 10, 10], 100, &[0.0; 3], 4);
        let mut backend = CooBackend::new(&t);
        let res = CpAls::new(CpAlsOptions::new(3).max_iters(50).time_budget(Duration::ZERO))
            .run(&t, &mut backend)
            .unwrap();
        assert_eq!(res.iters, 0);
        assert!(!res.converged);
        assert_eq!(res.diagnostics.stop, StopReason::TimeBudget);
        assert_eq!(res.diagnostics.count_of(BreakdownKind::TimeBudgetExpired), 1);
        assert!(res.model.factors.iter().all(Mat::is_finite));
    }
}
