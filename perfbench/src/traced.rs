//! The traced run: replays the `adatm decompose` pipeline in process and
//! times each call into a layer's public functions from the benchmark's
//! own code. Nothing inside the program is instrumented: the MTTKRP
//! backend and the checkpoint medium are wrapped through their public
//! traits, and the driver's own phase counters come from `CpResult`.

use crate::stats::{median, percentile};
use crate::workload::{Files, Workload, RANK};
use adatm_core::checkpoint::FsMedium;
use adatm_core::{
    decompose_with, AdaptiveBackend, CheckpointConfig, CheckpointMedium, CooBackend, CpModel,
    CsfBackend, DtreeBackend, MttkrpBackend,
};
use adatm_linalg::Mat;
use adatm_model::Planner;
use adatm_tensor::io::read_tns_file;
use adatm_tensor::SparseTensor;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// One timed call: name, start and end (ns since the trace origin), the
/// enclosing span, and a per-span detail (the mode of an MTTKRP call,
/// the byte count of a checkpoint persist).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub detail: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; spans are written out after the run.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

type Shared = Arc<Mutex<Tracer>>;

/// Runs `f` inside a span named `name`, nested under the innermost open
/// span.
fn timed<R>(tracer: &Shared, name: &'static str, detail: u64, f: impl FnOnce() -> R) -> R {
    let id = {
        let mut t = tracer.lock().expect("tracer lock poisoned by a panicking span");
        let start_ns = t.origin.elapsed().as_nanos() as u64;
        let parent = t.open.last().copied();
        t.spans.push(Span { name, start_ns, end_ns: start_ns, parent, detail });
        let id = t.spans.len() - 1;
        t.open.push(id);
        id
    };
    let r = f();
    let mut t = tracer.lock().expect("tracer lock poisoned by a panicking span");
    t.spans[id].end_ns = t.origin.elapsed().as_nanos() as u64;
    t.open.pop();
    r
}

/// Times `begin_mode` and `mttkrp_into` of the wrapped backend.
struct TracedBackend<B> {
    inner: B,
    tracer: Shared,
}

impl<B: MttkrpBackend> MttkrpBackend for TracedBackend<B> {
    fn begin_mode(&mut self, mode: usize) {
        timed(&self.tracer, "mttkrp.begin_mode", mode as u64, || self.inner.begin_mode(mode));
    }

    fn mttkrp_into(&mut self, tensor: &SparseTensor, factors: &[Mat], mode: usize, out: &mut Mat) {
        timed(&self.tracer, "mttkrp.call", mode as u64, || {
            self.inner.mttkrp_into(tensor, factors, mode, out)
        });
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn mode_order(&self, ndim: usize) -> Vec<usize> {
        self.inner.mode_order(ndim)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn structure_bytes(&self) -> usize {
        self.inner.structure_bytes()
    }

    fn predicted_iter_ns(&self) -> Option<f64> {
        self.inner.predicted_iter_ns()
    }
}

/// Times `persist` (write + fsync) and `rename` of the real filesystem
/// medium.
#[derive(Debug)]
struct TracedMedium {
    tracer: Shared,
}

impl CheckpointMedium for TracedMedium {
    fn persist(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        timed(&self.tracer, "checkpoint.persist", bytes.len() as u64, || {
            FsMedium.persist(path, bytes)
        })
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        timed(&self.tracer, "checkpoint.rename", 0, || FsMedium.rename(from, to))
    }
}

/// Writes `lambda.txt` and `factor_<d>.txt` with the body of `adatm
/// decompose --out`'s writer (`writeln!` on an unbuffered `File`), so the
/// span times the program's own write pattern.
fn write_factors(dir: &Path, model: &CpModel) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut lf = std::fs::File::create(dir.join("lambda.txt"))?;
    for l in &model.lambda {
        writeln!(lf, "{l}")?;
    }
    for (d, f) in model.factors.iter().enumerate() {
        let mut file = std::fs::File::create(dir.join(format!("factor_{d}.txt")))?;
        for i in 0..f.nrows() {
            let row: Vec<String> = f.row(i).iter().map(|x| format!("{x}")).collect();
            writeln!(file, "{}", row.join(" "))?;
        }
    }
    Ok(())
}

/// Total size of the files directly under `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut bytes = 0;
    for e in std::fs::read_dir(dir)? {
        bytes += e?.metadata()?.len();
    }
    Ok(bytes)
}

/// One traced pipeline: its per-layer metrics, its spans, and its wall
/// time (the root span).
pub struct Replay {
    pub metrics: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    pub wall_s: f64,
}

/// Replays `adatm decompose` on `files.tns` with every layer call timed.
/// Fails if the program fails, or if the wrapped MTTKRP time exceeds the
/// MTTKRP time the driver itself measured around those calls.
pub fn replay(w: &Workload, files: &Files) -> Result<Replay, String> {
    let tracer: Shared = Arc::new(Mutex::new(Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    }));
    let tr = &tracer;
    let _ = std::fs::remove_dir_all(&files.out);
    let _ = std::fs::remove_dir_all(&files.ckpt);
    let run = timed(tr, "pipeline", 0, || -> Result<_, String> {
        let mut t =
            timed(tr, "io.read", 0, || read_tns_file(&files.tns)).map_err(|e| e.to_string())?;
        timed(tr, "coo.dedup", 0, || t.dedup_sum());
        let plan = timed(tr, "model.plan", 0, || Planner::new(&t, RANK).plan_admitted())
            .map_err(|e| e.to_string())?;
        let planned = (
            plan.estimator_evals,
            plan.predicted.flops_per_iter,
            plan.predicted.traffic_bytes_per_iter,
        );
        let backend = timed(tr, "backend.build", 0, || AdaptiveBackend::from_plan(&t, RANK, plan));
        let structure_bytes = backend.structure_bytes();
        let order = backend.mode_order(t.ndim());
        let mut backend = TracedBackend { inner: backend, tracer: tr.clone() };
        let ckpt = w.checkpoint_every.map(|n| {
            let medium_tracer = tr.clone();
            CheckpointConfig::new(&files.ckpt).every_iters(n).medium_factory(Arc::new(move || {
                Box::new(TracedMedium { tracer: medium_tracer.clone() })
                    as Box<dyn CheckpointMedium>
            }))
        });
        let res = timed(tr, "cpals.run", 0, || decompose_with(&t, &w.options(ckpt), &mut backend))
            .map_err(|e| e.to_string())?;
        timed(tr, "output.write", 0, || write_factors(&files.out, &res.model))
            .map_err(|e| format!("writing factors: {e}"))?;
        Ok((planned, structure_bytes, order, res))
    })?;
    let ((evals, pred_flops, pred_traffic), structure_bytes, order, res) = run;
    let spans = tr.lock().expect("tracer lock poisoned by a panicking span").spans.clone();

    let total_ns = |name: &str| spans.iter().filter(|s| s.name == name).map(Span::ns).sum::<u64>();
    let secs = |name: &str| total_ns(name) as f64 / 1e9;
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };

    let tns_bytes = std::fs::metadata(&files.tns).map_err(|e| e.to_string())?.len() as f64;
    put("io.read_s", secs("io.read"));
    put("io.read_mib_s", tns_bytes / MIB / secs("io.read"));
    put("coo.dedup_s", secs("coo.dedup"));
    put("model.plan_s", secs("model.plan"));
    put("model.estimator_evals", evals as f64);
    put("model.pred_mflop_per_iter", pred_flops / 1e6);
    put("model.pred_traffic_mib_per_iter", pred_traffic / MIB);
    put("backend.build_s", secs("backend.build"));
    put("backend.structure_mib", structure_bytes as f64 / MIB);

    // Exact sweeps: each starts at begin_mode of the first mode in the
    // backend's order; pairwise-perturbation sweeps never reach the
    // backend. Only complete sweeps (one call per mode) are kept.
    let mut sweeps: Vec<(u64, Vec<u64>)> = Vec::new();
    for s in spans.iter().filter(|s| s.name.starts_with("mttkrp.")) {
        if s.name == "mttkrp.begin_mode" && s.detail == order[0] as u64 {
            sweeps.push((0, Vec::new()));
        }
        if let Some((ns, calls)) = sweeps.last_mut() {
            *ns += s.ns();
            if s.name == "mttkrp.call" {
                calls.push(s.ns());
            }
        }
    }
    sweeps.retain(|(_, calls)| calls.len() == order.len());
    let ms = |ns: u64| ns as f64 / 1e6;
    let first_ms = sweeps.first().map_or(0.0, |(ns, _)| ms(*ns));
    let steady = if sweeps.len() > 1 { &sweeps[1..] } else { &sweeps[..] };
    let sweep_ms: Vec<f64> = steady.iter().map(|(ns, _)| ms(*ns)).collect();
    let call_ms: Vec<f64> = steady.iter().flat_map(|(_, c)| c.iter().map(|&ns| ms(ns))).collect();
    let sweep_p50 = if sweep_ms.is_empty() { 0.0 } else { median(&sweep_ms) };
    put("mttkrp.calls", count("mttkrp.call") as f64);
    put("mttkrp.first_sweep_ms", first_ms);
    put("mttkrp.sweep_ms.p50", sweep_p50);
    put("mttkrp.sweep_ms.p90", if sweep_ms.is_empty() { 0.0 } else { percentile(&sweep_ms, 90.0) });
    put("mttkrp.call_ms.p50", if call_ms.is_empty() { 0.0 } else { median(&call_ms) });
    put("mttkrp.call_ms.p90", if call_ms.is_empty() { 0.0 } else { percentile(&call_ms, 90.0) });
    put("mttkrp.gflop_s", if sweep_p50 > 0.0 { pred_flops / (sweep_p50 / 1e3) / 1e9 } else { 0.0 });

    let tm = &res.timings;
    let iters = res.iters.max(1) as f64;
    let loop_s = secs("cpals.run");
    let wrapped_s = secs("mttkrp.call") + secs("mttkrp.begin_mode");
    if wrapped_s > tm.mttkrp.as_secs_f64() {
        return Err(format!(
            "wrapped MTTKRP time {wrapped_s} s exceeds the driver's MTTKRP time {} s",
            tm.mttkrp.as_secs_f64()
        ));
    }
    let pp_s = tm.mttkrp.as_secs_f64() - wrapped_s;
    put("dense.ms_per_iter", tm.dense.as_secs_f64() * 1e3 / iters);
    put("dense.share", tm.dense.as_secs_f64() / loop_s);
    put("fit.ms_per_iter", tm.fit.as_secs_f64() * 1e3 / iters);
    put("cpals.iters", res.iters as f64);
    put("cpals.loop_s", loop_s);
    put("cpals.unattributed_ms_per_iter", (loop_s - tm.total().as_secs_f64()) * 1e3 / iters);

    let d = &res.diagnostics;
    put("pp.sweeps", d.pp_sweeps as f64);
    put("pp.refreshes", d.pp_refreshes as f64);
    put("pp.sweep_frac", d.pp_sweeps as f64 / iters);
    put("pp.sweep_ms", d.pp_sweep_ns.unwrap_or(0.0) / 1e6);
    put("pp.exact_sweep_ms", d.exact_sweep_ns.unwrap_or(0.0) / 1e6);
    // Without PP the remainder is only the driver's bookkeeping inside
    // its MTTKRP timer; PP is not running, so the layer reports 0.
    put("pp.ms", if w.pp.is_some() { pp_s * 1e3 } else { 0.0 });

    let writes = count("checkpoint.persist");
    let per_write = |x: f64| if writes > 0 { x / writes as f64 } else { 0.0 };
    let persisted: u64 =
        spans.iter().filter(|s| s.name == "checkpoint.persist").map(|s| s.detail).sum();
    let write_ms = per_write(tm.checkpoint.as_secs_f64() * 1e3);
    let persist_ms = per_write(secs("checkpoint.persist") * 1e3);
    put("checkpoint.writes", writes as f64);
    put("checkpoint.mib", per_write(persisted as f64 / MIB));
    put("checkpoint.write_ms", write_ms);
    put("checkpoint.persist_ms", persist_ms);
    put("checkpoint.encode_ms", write_ms - persist_ms - per_write(secs("checkpoint.rename") * 1e3));

    let out_bytes = dir_bytes(&files.out).map_err(|e| format!("sizing the factor files: {e}"))?;
    put("output.mib", out_bytes as f64 / MIB);
    put("output.mib_s", out_bytes as f64 / MIB / secs("output.write"));

    let wall_s = secs("pipeline");
    let layers_s = ["io.read", "coo.dedup", "model.plan", "backend.build", "output.write"]
        .iter()
        .map(|n| secs(n))
        .sum::<f64>()
        + tm.total().as_secs_f64();
    put("trace.coverage", layers_s / wall_s);
    Ok(Replay { metrics: m, spans, wall_s })
}

/// Median of `reps` steady exact sweeps (after one warm-up sweep) with
/// fixed random factors, in ms.
fn steady_sweep_ms(b: &mut dyn MttkrpBackend, t: &SparseTensor, reps: usize) -> f64 {
    let factors: Vec<Mat> =
        t.dims().iter().enumerate().map(|(d, &n)| Mat::random(n, RANK, d as u64 + 1)).collect();
    let mut outs: Vec<Mat> = t.dims().iter().map(|&n| Mat::zeros(n, RANK)).collect();
    let order = b.mode_order(t.ndim());
    let mut sweep = || {
        let t0 = Instant::now();
        for &mode in &order {
            b.begin_mode(mode);
            b.mttkrp_into(t, &factors, mode, &mut outs[mode]);
        }
        t0.elapsed().as_secs_f64() * 1e3
    };
    sweep();
    let times: Vec<f64> = (0..reps).map(|_| sweep()).collect();
    median(&times)
}

/// Planner regret, the 1-thread baseline and the runtime's per-operation
/// cost, each measured on `t` at the current thread count unless noted.
pub fn probes(t: &SparseTensor, threads: usize) -> Result<BTreeMap<String, f64>, String> {
    const REPS: usize = 3;
    let mut m = BTreeMap::new();
    type Build = fn(&SparseTensor) -> Box<dyn MttkrpBackend>;
    let fixed: [(&str, Build); 5] = [
        ("coo", |t| Box::new(CooBackend::new(t))),
        ("csf", |t| Box::new(CsfBackend::new(t))),
        ("tree2", |t| Box::new(DtreeBackend::two_level(t, RANK))),
        ("tree3", |t| Box::new(DtreeBackend::three_level(t, RANK))),
        ("bdt", |t| Box::new(DtreeBackend::balanced_binary(t, RANK))),
    ];
    let mut fastest = f64::INFINITY;
    for (name, build) in fixed {
        let ms = steady_sweep_ms(build(t).as_mut(), t, REPS);
        fastest = fastest.min(ms);
        m.insert(format!("model.sweep_ms.{name}"), ms);
    }
    let plan = Planner::new(t, RANK).plan_admitted().map_err(|e| e.to_string())?;
    let mut adaptive = AdaptiveBackend::from_plan(t, RANK, plan);
    let adaptive_ms = steady_sweep_ms(&mut adaptive, t, REPS);
    let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().map_err(|e| e.to_string())?;
    let t1_ms = one.install(|| steady_sweep_ms(&mut adaptive, t, REPS));
    m.insert("model.sweep_ms.adaptive".into(), adaptive_ms);
    m.insert("model.plan_regret".into(), adaptive_ms / fastest);
    m.insert("mttkrp.t1_sweep_ms".into(), t1_ms);
    m.insert("mttkrp.par_speedup".into(), t1_ms / adaptive_ms);

    // One empty parallel operation, one item per worker.
    const OPS: usize = 20;
    let batches: Vec<f64> = (0..30)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..OPS {
                (0..threads).into_par_iter().for_each(|i| {
                    std::hint::black_box(i);
                });
            }
            t0.elapsed().as_secs_f64() * 1e6 / OPS as f64
        })
        .collect();
    m.insert("runtime.par_op_us".into(), median(&batches));
    Ok(m)
}
