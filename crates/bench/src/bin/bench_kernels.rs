//! Bench-regression kernel driver (`cargo xtask bench`).
//!
//! Measures the hot MTTKRP kernels and an end-to-end CP-ALS iteration in
//! a pinned thread pool, counts steady-state heap allocations with a
//! counting global allocator, and writes a `BENCH_<date>.json` snapshot
//! that `cargo xtask bench` diffs against the previous snapshot.
//!
//! Knobs:
//!
//! * `ADATM_BENCH_SMOKE=1` — tiny tensors / few reps (CI smoke job);
//! * `ADATM_BENCH_THREADS` — pinned pool size (default 8);
//! * `ADATM_RANK` — decomposition rank (default 16);
//! * argv[1] — output JSON path (default `BENCH_<date>.json`).
//!
//! When any hard gate fails the run exits 1 without writing the
//! snapshot, so a failing run never becomes the baseline the next
//! `cargo xtask bench` diffs against.

// The counting allocator is the one permitted unsafe block in the
// workspace: a GlobalAlloc shim must be `unsafe impl` by definition.
#![allow(unsafe_code)]

use adatm_bench::{env_flag, env_usize, time_best, with_threads, Table};
use adatm_core::{
    all_backends, CheckpointConfig, CooBackend, CpAls, CpAlsOptions, DtreeBackend, PpConfig,
};
use adatm_dtree::{DtreeEngine, EngineOptions, NodeKernelClass, TreeShape};
use adatm_linalg::Mat;
use adatm_tensor::csf::CsfTensor;
use adatm_tensor::gen::proxy_datasets;
use adatm_tensor::mttkrp::{mttkrp_par_into, schedule_for_view};
use adatm_tensor::schedule::Workspace;
use adatm_tensor::{SortedModeView, SparseTensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Global allocator that counts allocation events (not bytes): the
/// steady-state kernels claim *zero* allocations per call, so an event
/// count is the sharpest possible check.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// One benchmark measurement.
struct Record {
    kernel: &'static str,
    backend: String,
    tensor: &'static str,
    threads: usize,
    ns_per_call: u64,
    /// Allocation events during one steady-state call (u64::MAX = not
    /// measured for this record).
    allocs_per_call: u64,
}

/// Times one steady-state call of `f` (best of `reps`) and counts the
/// allocation events of a single post-warmup call.
fn measure<F: FnMut()>(reps: usize, mut f: F) -> (u64, u64) {
    f(); // warmup: builds schedules, grows workspaces
    let a0 = alloc_events();
    f();
    let allocs = alloc_events() - a0;
    let best = time_best(reps, &mut f);
    (best.as_nanos() as u64, allocs)
}

/// Gregorian civil date from days since 1970-01-01 (Hinnant's algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn today_utc() -> String {
    let secs =
        SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or(Duration::ZERO).as_secs() as i64;
    let (y, m, d) = civil_from_days(secs.div_euclid(86_400));
    format!("{y:04}-{m:02}-{d:02}")
}

fn factors_for(t: &SparseTensor, rank: usize, seed: u64) -> Vec<Mat> {
    t.dims().iter().enumerate().map(|(d, &n)| Mat::random(n, rank, seed + d as u64)).collect()
}

/// The Zipf-0.9 E3-class gate tensor: `deli4d`, the first proxy dataset
/// of the standard experiment suite (Delicious-like, user-mode skew
/// 0.9), at the default E3 harness scale. Smoke mode shrinks it 10x.
fn gate_tensor(smoke: bool) -> SparseTensor {
    let scale = if smoke { 0.01 } else { 0.1 };
    let spec = &proxy_datasets(scale)[0];
    assert_eq!(spec.name, "deli4d", "suite order changed; update the gate");
    spec.build()
}

/// Scheduled COO kernel, every mode's sorted view.
fn bench_coo(t: &SparseTensor, rank: usize, threads: usize, reps: usize) -> Vec<Record> {
    let factors = factors_for(t, rank, 11);
    let mut records = Vec::new();
    with_threads(threads, || {
        let mut ws = Workspace::new();
        for mode in 0..t.ndim() {
            let view = SortedModeView::build(t, mode);
            let sched = schedule_for_view(&view, threads);
            let mut out = Mat::zeros(t.dims()[mode], rank);
            let (ns, allocs) = measure(reps, || {
                mttkrp_par_into(t, &factors, mode, &view, &sched, &mut ws, &mut out);
                std::hint::black_box(&out);
            });
            records.push(Record {
                kernel: "mttkrp",
                backend: format!("coo-sched-m{mode}"),
                tensor: "deli4d",
                threads,
                ns_per_call: ns,
                allocs_per_call: allocs,
            });
        }
    });
    records
}

/// CSF root-mode kernel, every mode's forest.
fn bench_csf(t: &SparseTensor, rank: usize, threads: usize, reps: usize) -> Vec<Record> {
    let factors = factors_for(t, rank, 13);
    let mut records = Vec::new();
    with_threads(threads, || {
        let mut ws = Workspace::new();
        for mode in 0..t.ndim() {
            let csf = CsfTensor::for_mode(t, mode);
            let sched = csf.root_schedule(threads);
            let mut out = Mat::zeros(t.dims()[mode], rank);
            let (ns, allocs) = measure(reps, || {
                csf.mttkrp_root_into(&factors, &sched, &mut ws, &mut out);
                std::hint::black_box(&out);
            });
            records.push(Record {
                kernel: "mttkrp",
                backend: format!("csf-sched-m{mode}"),
                tensor: "deli4d",
                threads,
                ns_per_call: ns,
                allocs_per_call: allocs,
            });
        }
    });
    records
}

/// Dimension-tree TTMV node kernels on the balanced binary tree, one
/// record per kernel class: a steady-state recompute of every node the
/// engine runs with that class (pull = owner-computes over reduction
/// sets, scatter = parent-streaming push). These are the rates the
/// calibration probe prices tree plans with, recorded here so the
/// regression gate covers them.
fn bench_dtree_ttmv(t: &SparseTensor, rank: usize, threads: usize, reps: usize) -> Vec<Record> {
    let factors = factors_for(t, rank, 19);
    let mut records = Vec::new();
    with_threads(threads, || {
        let shape = TreeShape::balanced_binary(t.ndim());
        let mut eng = DtreeEngine::with_options(t, &shape, rank, EngineOptions::default());
        for class in [NodeKernelClass::Pull, NodeKernelClass::Scatter] {
            let nodes: Vec<usize> = (1..eng.tree().len())
                .filter(|&id| eng.node_kernel_class(id) == Some(class))
                .collect();
            if nodes.is_empty() {
                continue;
            }
            let (ns, allocs) = measure(reps, || {
                for &id in &nodes {
                    eng.recompute_node(t, &factors, id);
                }
            });
            records.push(Record {
                kernel: "ttmv",
                backend: format!("tree-{class}"),
                tensor: "deli4d",
                threads,
                ns_per_call: ns,
                allocs_per_call: allocs,
            });
        }
    });
    records
}

/// Zero-allocation gate: the scheduled kernels in a 1-thread pool
/// (sequential schedule) must not allocate at all in steady state.
fn bench_alloc_gate(t: &SparseTensor, rank: usize) -> Vec<Record> {
    let factors = factors_for(t, rank, 17);
    let view = SortedModeView::build(t, 1);
    let csf = CsfTensor::for_mode(t, 1);
    let mut records = Vec::new();
    with_threads(1, || {
        let mut ws = Workspace::new();
        let sched = schedule_for_view(&view, 1);
        let mut out = Mat::zeros(t.dims()[1], rank);
        let (ns, allocs) = measure(2, || {
            mttkrp_par_into(t, &factors, 1, &view, &sched, &mut ws, &mut out);
        });
        records.push(Record {
            kernel: "alloc-gate",
            backend: "coo-sched-seq".to_string(),
            tensor: "deli4d",
            threads: 1,
            ns_per_call: ns,
            allocs_per_call: allocs,
        });
        let rsched = csf.root_schedule(1);
        let (ns, allocs) = measure(2, || {
            csf.mttkrp_root_into(&factors, &rsched, &mut ws, &mut out);
        });
        records.push(Record {
            kernel: "alloc-gate",
            backend: "csf-sched-seq".to_string(),
            tensor: "deli4d",
            threads: 1,
            ns_per_call: ns,
            allocs_per_call: allocs,
        });
    });
    records
}

/// End-to-end CP-ALS per-iteration time for every backend.
fn bench_cpals(
    t: &SparseTensor,
    rank: usize,
    threads: usize,
    iters: usize,
    reps: usize,
) -> Vec<Record> {
    let mut records = Vec::new();
    with_threads(threads, || {
        // Interleave repetitions across backends, rotating the visit
        // order each round: a fixed order hands whichever backend runs
        // last any monotone machine drift within the round.
        let mut backends = all_backends(t, rank);
        let len = backends.len();
        let mut best = vec![u64::MAX; len];
        for rep in 0..reps {
            for k in 0..len {
                let i = (k + rep) % len;
                let opts = CpAlsOptions::new(rank).max_iters(iters).tol(0.0).seed(0);
                let res = CpAls::new(opts)
                    .run(t, &mut backends[i])
                    .unwrap_or_else(|e| panic!("bench CP-ALS rejected input: {e}"));
                let per_iter = if res.iters == 0 {
                    0
                } else {
                    (res.timings.total().as_nanos() / res.iters as u128) as u64
                };
                best[i] = best[i].min(per_iter);
            }
        }
        for (b, &per_iter) in backends.iter().zip(&best) {
            records.push(Record {
                kernel: "cpals-iter",
                backend: b.name().to_string(),
                tensor: "deli4d",
                threads,
                ns_per_call: per_iter,
                allocs_per_call: u64::MAX,
            });
        }
    });
    records
}

/// Pairwise-perturbation gate: one PP-enabled CP-ALS run on the
/// balanced-binary tree backend, with the speedup taken from the run's
/// own diagnostics — average MTTKRP-phase time of an approximate sweep
/// vs a clean exact sweep of the *same* run, so machine drift cancels —
/// plus an all-exact twin run to bound the fit error PP introduces.
/// Returns (records, sweep speedup, |fit difference|).
fn bench_pp(t: &SparseTensor, rank: usize, threads: usize, smoke: bool) -> (Vec<Record>, f64, f64) {
    let iters = if smoke { 16 } else { 30 };
    let mut records = Vec::new();
    let mut speedup = 0.0;
    let mut fit_diff = f64::NAN;
    with_threads(threads, || {
        let opts = CpAlsOptions::new(rank).max_iters(iters).tol(0.0).seed(0);
        let mut b = DtreeBackend::balanced_binary(t, rank);
        let exact = CpAls::new(opts.clone())
            .run(t, &mut b)
            .unwrap_or_else(|e| panic!("bench CP-ALS rejected input: {e}"));
        let pp_opts = opts.pp(PpConfig::new().tol(0.05).every(8));
        let mut b = DtreeBackend::balanced_binary(t, rank);
        let pp = CpAls::new(pp_opts)
            .run(t, &mut b)
            .unwrap_or_else(|e| panic!("bench CP-ALS rejected input: {e}"));
        let exact_ns = pp.diagnostics.exact_sweep_ns.unwrap_or(0.0);
        let pp_ns = pp.diagnostics.pp_sweep_ns.unwrap_or(f64::INFINITY);
        speedup = if pp_ns > 0.0 { exact_ns / pp_ns } else { 0.0 };
        fit_diff = (exact.final_fit() - pp.final_fit()).abs();
        println!(
            "   pp: {} approximate sweep(s), {} refresh(es); exact sweep {:.2} ms vs pp sweep \
             {:.2} ms -> {speedup:.2}x; |fit diff| {fit_diff:.2e}",
            pp.diagnostics.pp_sweeps,
            pp.diagnostics.pp_refreshes,
            exact_ns / 1e6,
            pp_ns / 1e6,
        );
        records.push(Record {
            kernel: "cpals-sweep-exact",
            backend: "bdt".to_string(),
            tensor: "deli4d",
            threads,
            ns_per_call: exact_ns as u64,
            allocs_per_call: u64::MAX,
        });
        records.push(Record {
            kernel: "cpals-sweep-pp",
            backend: "bdt+pp".to_string(),
            tensor: "deli4d",
            threads,
            ns_per_call: pp_ns as u64,
            allocs_per_call: u64::MAX,
        });
    });
    (records, speedup, fit_diff)
}

/// Durability guard: checkpointing every 5 iterations must stay cheap
/// relative to the iterations themselves. Returns the record plus the
/// measured overhead in percent (checkpoint time over everything else,
/// from the driver's own phase timings — the same accounting the
/// `checkpointing_does_not_perturb_the_trajectory` test exercises).
fn bench_ckpt_overhead(
    t: &SparseTensor,
    rank: usize,
    threads: usize,
    reps: usize,
) -> (Record, f64) {
    let dir = std::env::temp_dir().join(format!("adatm-bench-ckpt-{}", std::process::id()));
    let iters = 10; // two writes at the every-5 cadence
    let mut best_overhead = f64::INFINITY;
    let mut best_ckpt_ns = u64::MAX;
    with_threads(threads, || {
        for _ in 0..reps.max(2) {
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = CheckpointConfig::new(&dir).every_iters(5);
            let opts = CpAlsOptions::new(rank).max_iters(iters).tol(0.0).seed(0).checkpoint(cfg);
            let mut b = CooBackend::new(t);
            let res = CpAls::new(opts)
                .run(t, &mut b)
                .unwrap_or_else(|e| panic!("bench CP-ALS rejected input: {e}"));
            let ckpt = res.timings.checkpoint.as_nanos() as f64;
            let rest = res.timings.total().as_nanos() as f64 - ckpt;
            if rest > 0.0 {
                best_overhead = best_overhead.min(100.0 * ckpt / rest);
            }
            best_ckpt_ns =
                best_ckpt_ns.min((res.timings.checkpoint.as_nanos() / (iters as u128 / 5)) as u64);
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    let record = Record {
        kernel: "ckpt-overhead",
        backend: "coo".to_string(),
        tensor: "deli4d",
        threads,
        ns_per_call: best_ckpt_ns,
        allocs_per_call: u64::MAX,
    };
    (record, best_overhead)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    date: &str,
    smoke: bool,
    threads: usize,
    rank: usize,
    records: &[Record],
    pp_speedup: f64,
    pp_fit_diff: f64,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": 1,\n  \"date\": \"{date}\",\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"rank\": {rank},\n"));
    out.push_str(&format!(
        "  \"summary\": {{ \"pp_sweep_speedup\": {pp_speedup:.3}, \
         \"pp_fit_diff\": {pp_fit_diff:.3e} }},\n  \"records\": [\n"
    ));
    for (i, r) in records.iter().enumerate() {
        let allocs = if r.allocs_per_call == u64::MAX {
            "null".to_string()
        } else {
            r.allocs_per_call.to_string()
        };
        out.push_str(&format!(
            "    {{ \"kernel\": \"{}\", \"backend\": \"{}\", \"tensor\": \"{}\", \
             \"threads\": {}, \"ns_per_call\": {}, \"allocs_per_call\": {} }}{}\n",
            json_escape(r.kernel),
            json_escape(&r.backend),
            json_escape(r.tensor),
            r.threads,
            r.ns_per_call,
            allocs,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

fn main() {
    let smoke = env_flag("ADATM_BENCH_SMOKE");
    let threads = env_usize("ADATM_BENCH_THREADS", 8);
    let rank = env_usize("ADATM_RANK", 16);
    let reps = env_usize("ADATM_BENCH_REPS", if smoke { 2 } else { 25 });
    let e2e_iters = if smoke { 1 } else { 3 };
    let date = today_utc();
    let out_path = std::env::args().nth(1).unwrap_or_else(|| format!("BENCH_{date}.json"));

    println!("== bench_kernels: threads={threads} rank={rank} smoke={smoke}");
    let t = gate_tensor(smoke);
    println!("   gate tensor: dims={:?} nnz={}", t.dims(), t.nnz());

    let mut records = bench_coo(&t, rank, threads, reps);
    records.extend(bench_csf(&t, rank, threads, reps));
    records.extend(bench_dtree_ttmv(&t, rank, threads, reps));
    records.extend(bench_alloc_gate(&t, rank));
    let e2e_reps = if smoke { 2 } else { 9 };
    records.extend(bench_cpals(&t, rank, threads, e2e_iters, e2e_reps));
    let (pp_records, pp_speedup, pp_fit_diff) = bench_pp(&t, rank, threads, smoke);
    records.extend(pp_records);
    let (ckpt_record, ckpt_overhead_pct) = bench_ckpt_overhead(&t, rank, threads, e2e_reps);
    records.push(ckpt_record);

    let mut table = Table::new(&["kernel", "backend", "threads", "ns/call", "allocs/call"]);
    for r in &records {
        table.row(&[
            r.kernel.to_string(),
            r.backend.clone(),
            r.threads.to_string(),
            r.ns_per_call.to_string(),
            if r.allocs_per_call == u64::MAX { "-".into() } else { r.allocs_per_call.to_string() },
        ]);
    }
    table.print();

    // Hard gates mirrored from the test-suite so a bench run can't
    // silently record a broken configuration. Each failure carries the
    // label of the gate that raised it.
    let mut gate_failures: Vec<(&str, String)> = records
        .iter()
        .filter(|r| r.kernel == "alloc-gate" && r.allocs_per_call != 0)
        .map(|r| {
            let msg =
                format!("{} allocated {} time(s) in steady state", r.backend, r.allocs_per_call);
            ("ALLOC", msg)
        })
        .collect();

    // Checkpoint-overhead gate: every-5-iterations checkpointing must
    // cost < 2% of the iteration work at full scale. Smoke iterations on
    // the 100x-smaller tensor are microseconds while an fsync is not, so
    // the smoke default is far looser — override either with
    // `ADATM_CKPT_TOLERANCE_PCT`.
    let default_tolerance = if smoke { 500.0 } else { 2.0 };
    let tolerance = std::env::var("ADATM_CKPT_TOLERANCE_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(default_tolerance);
    println!(
        "   checkpoint overhead: {ckpt_overhead_pct:.3}% of iteration work (gate < {tolerance}%)"
    );
    if ckpt_overhead_pct > tolerance {
        gate_failures.push((
            "CKPT OVERHEAD",
            format!(
                "checkpointing every 5 iters costs {ckpt_overhead_pct:.2}% (> {tolerance}%) of \
                 cpals-iter work"
            ),
        ));
    }

    // Pairwise-perturbation gates (full scale only: the smoke tensor's
    // sweeps are microseconds and its fit trajectory too short for the
    // thresholds to be meaningful): an approximate sweep must run at
    // least 2x faster than a clean exact sweep of the same run, without
    // moving the final fit by more than 1e-4 against the all-exact twin.
    if !smoke {
        if pp_speedup < 2.0 {
            gate_failures.push((
                "PP SPEEDUP",
                format!("pp sweep speedup {pp_speedup:.2}x below the 2x gate"),
            ));
        }
        if !(pp_fit_diff.is_finite() && pp_fit_diff <= 1e-4) {
            gate_failures.push((
                "PP FIT",
                format!("pp final-fit difference {pp_fit_diff:.2e} exceeds the 1e-4 gate"),
            ));
        }
    }

    if !gate_failures.is_empty() {
        for (label, msg) in &gate_failures {
            eprintln!("bench_kernels: {label} GATE FAILED: {msg}");
        }
        eprintln!("bench_kernels: not writing {out_path}: {} gate(s) failed", gate_failures.len());
        std::process::exit(1);
    }
    if let Err(e) =
        write_json(&out_path, &date, smoke, threads, rank, &records, pp_speedup, pp_fit_diff)
    {
        eprintln!("bench_kernels: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("   wrote {out_path}");
}
