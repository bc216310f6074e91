//! End-to-end and per-layer benchmark of `adatm decompose`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest-3d|als-6d|durable-4d> --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the `adatm` CLI, generates
//! the workload's input from the seed, and then:
//!
//! * `--trace 0`: runs `adatm decompose` as a subprocess, one at a time,
//!   for about S seconds, and reports the end-to-end metrics (medians
//!   over the runs);
//! * `--trace 1`: replays the same pipeline in process with every layer
//!   call timed, and reports the per-layer metrics.
//!
//! Every run's written factors are checked against a reference fit. The
//! last stdout line is the JSON result; the lines before it print every
//! metric by name with its unit. See README.md for the metric and
//! workload definitions.

mod check;
mod cli;
mod json;
mod spec;
mod stats;
mod traced;
mod workload;

use json::Json;
use spec::Spec;
use stats::{iqr_share, median};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Files, Input, Workload, RANK};

/// A run measures at least this many repetitions, even past `--seconds`,
/// so every median has a middle.
const MIN_REPS: usize = 3;
/// A single `adatm decompose` that takes longer than this has failed.
const CLI_TIMEOUT: Duration = Duration::from_secs(60);

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: None, trace: false };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Builds the repository's `adatm` binary and returns its path.
fn build_cli(target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "adatm"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the adatm CLI failed ({status})"));
    }
    Ok(target.join("release").join("adatm"))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).stderr(Stdio::null()).output().ok()?;
    let s = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !s.trim().is_empty()).then(|| s.trim().to_string())
}

/// The host block recorded with every result.
fn host(threads: usize) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    // Only this checkout's own repository, never an enclosing one.
    let git_sha =
        Path::new(".git").exists().then(|| command_line("git", &["rev-parse", "HEAD"])).flatten();
    Json::obj([
        ("cpu", Json::str(cpu)),
        ("available_parallelism", Json::Num(parallelism as f64)),
        ("threads", Json::Num(threads as f64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]).unwrap_or("unknown".into()))),
        ("git_sha", Json::str(git_sha.unwrap_or("unknown".into()))),
    ])
}

/// Outcome of one benchmark run, before it is printed.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, f64>,
}

fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    if !spec.workloads.contains(&args.workload) {
        return Err(format!(
            "unknown workload '{}' (BENCHMARK.json lists {:?})",
            args.workload, spec.workloads
        ));
    }
    let w = workload::find(&args.workload)
        .ok_or(format!("workload '{}' is not coded", args.workload))?;
    let seconds = Duration::from_secs(args.seconds.unwrap_or(spec.run_seconds));
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let target =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
    let bin = build_cli(&target)?;
    let work = target.join("perfbench-work");
    let host = host(threads);
    println!("host: {host}");

    let pool =
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().map_err(|e| e.to_string())?;
    pool.install(|| -> Result<bool, String> {
        let input = workload::prepare(&w, args.seed, &work.join("inputs"))?;
        let files =
            Files { tns: input.tns.clone(), out: work.join("out"), ckpt: work.join("ckpt") };
        println!(
            "workload: {} seed {} ({} nnz, reference fit {}), {} threads",
            w.name,
            args.seed,
            input.tensor.nnz(),
            input.ref_fit,
            threads
        );
        let bench = Bench { w: &w, input: &input, files: &files, bin: &bin, threads };
        let (outcome, listed) = if args.trace {
            let spans_path = work.join(format!("spans-{}-{}.json", w.name, args.seed));
            (bench.traced_run(seconds, &spans_path, &host)?, &spec.per_layer)
        } else {
            (bench.untraced_run(seconds), &spec.end_to_end)
        };
        let correct = outcome.failed == 0;
        if outcome.metrics.is_empty() {
            println!("{}", spec::result_line(false, outcome.attempted, outcome.failed, &[]));
            return Ok(false);
        }
        let selected = spec::select(listed, &outcome.metrics)?;
        for (m, v) in &selected {
            println!("metric {:<36} {v:>14.6} {}", m.name, m.unit);
        }
        println!("{}", spec::result_line(correct, outcome.attempted, outcome.failed, &selected));
        Ok(correct)
    })
}

extern "C" {
    fn sync();
}

/// Flushes dirty pages left by earlier runs (deleted output, checkpoint
/// files, inputs), so their writeback does not land inside the next
/// timed run.
fn sync_disks() {
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

/// Repeats `rep` until `seconds` would be exceeded by one more
/// repetition (at least [`MIN_REPS`] times), returning every result.
fn repeat<T>(
    seconds: Duration,
    mut rep: impl FnMut(usize) -> Result<T, String>,
) -> (usize, Vec<T>) {
    let start = Instant::now();
    let mut ok = Vec::new();
    let mut attempted = 0;
    loop {
        let t0 = Instant::now();
        attempted += 1;
        match rep(attempted) {
            Ok(x) => ok.push(x),
            Err(e) => eprintln!("perfbench: repetition {attempted} failed: {e}"),
        }
        if attempted >= MIN_REPS && start.elapsed() + t0.elapsed() > seconds {
            return (attempted, ok);
        }
    }
}

/// Everything one benchmark run works on.
struct Bench<'a> {
    w: &'a Workload,
    input: &'a Input,
    files: &'a Files,
    bin: &'a Path,
    threads: usize,
}

impl Bench<'_> {
    /// The correctness check of one run's output, returning its fit
    /// ratio to the reference.
    fn check(&self) -> Result<f64, String> {
        let (w, files) = (self.w, self.files);
        if w.checkpoint_every.is_some() {
            check::check_checkpoint(&files.ckpt, w.iters)?;
        }
        let tol = check::fit_tolerance(w.pp.is_some());
        check::check_output(&files.out, &self.input.tensor, RANK, self.input.ref_fit, tol)
    }

    /// One `adatm decompose` run plus its check.
    fn cli_rep(&self) -> Result<(cli::Run, f64), String> {
        let files = self.files;
        let _ = std::fs::remove_dir_all(&files.out);
        let _ = std::fs::remove_dir_all(&files.ckpt);
        sync_disks();
        let args = self.w.cli_args(files);
        let r = cli::run(self.bin, &args, self.threads, self.input.tensor.ndim(), CLI_TIMEOUT)?;
        let ratio = self.check()?;
        Ok((r, ratio))
    }

    /// The workload's set-up-only runs, each timed to its `backend:`
    /// line.
    fn setup_probes(&self) -> Result<Vec<f64>, String> {
        sync_disks();
        let args = self.w.setup_args(self.files);
        (0..self.w.setup_probes)
            .map(|_| cli::run_setup(self.bin, &args, self.threads, CLI_TIMEOUT))
            .collect()
    }

    fn untraced_run(&self, seconds: Duration) -> Outcome {
        // One unmeasured warm-up run, inside `seconds`: measured runs
        // then all start after a decompose run, not after input
        // preparation. It is checked like the others. The set-up-only
        // runs after it are measured: one more point in time at which
        // `setup_s` samples the host.
        let start = Instant::now();
        let warm_up = self.cli_rep().and_then(|_| self.setup_probes());
        if let Err(e) = &warm_up {
            eprintln!("perfbench: warm-up run failed: {e}");
        }
        let (measured, reps) = repeat(seconds.saturating_sub(start.elapsed()), |i| {
            let (r, fit_ratio) = self.cli_rep()?;
            let setups = self.setup_probes()?;
            let p = r.phases;
            println!(
                "run {i}: total {:.3} s = setup {:.3} + solve {:.3} + output {:.3}; peak {:.1} MiB; fit ratio {fit_ratio}; set-up-only runs {setups:.3?} s",
                p.total_s, p.setup_s, p.solve_s, p.output_s, r.peak_rss_mib
            );
            Ok((r, fit_ratio, setups))
        });
        // The output phase is printed per run but is not a metric: on
        // `als-6d` it lasts ~60 ms and its run-to-run spread exceeds any
        // usable bound (see README.md). `setup_s` pools the set-up phase
        // of the measured runs and of the set-up-only runs.
        let series = [
            ("total_s", reps.iter().map(|(r, ..)| r.phases.total_s).collect::<Vec<f64>>()),
            (
                "setup_s",
                warm_up
                    .iter()
                    .flatten()
                    .copied()
                    .chain(reps.iter().flat_map(|(r, _, setups)| {
                        std::iter::once(r.phases.setup_s).chain(setups.iter().copied())
                    }))
                    .collect(),
            ),
            ("solve_s", reps.iter().map(|(r, ..)| r.phases.solve_s).collect()),
            ("peak_rss_mib", reps.iter().map(|(r, ..)| r.peak_rss_mib).collect()),
            ("fit_ratio", reps.iter().map(|(_, ratio, _)| *ratio).collect()),
        ];
        let mut metrics = BTreeMap::new();
        for (name, xs) in series {
            if !xs.is_empty() {
                println!(
                    "spread {name:<12} iqr/median {:.4} over {} samples",
                    iqr_share(&xs),
                    xs.len()
                );
                metrics.insert(name.to_string(), median(&xs));
            }
        }
        let attempted = measured + 1;
        Outcome {
            attempted,
            failed: attempted - reps.len() - usize::from(warm_up.is_ok()),
            metrics,
        }
    }

    /// Per-layer metrics from traced in-process replays, plus the probes;
    /// the spans of the last replay are written to `spans_path`.
    fn traced_run(
        &self,
        seconds: Duration,
        spans_path: &Path,
        host: &Json,
    ) -> Result<Outcome, String> {
        // The untraced baseline the trace overhead is measured against;
        // it counts toward the run's `seconds`.
        let start = Instant::now();
        let baseline = self.cli_rep();
        let (replays_attempted, replays) = repeat(seconds.saturating_sub(start.elapsed()), |i| {
            sync_disks();
            let r = traced::replay(self.w, self.files)?;
            self.check()?;
            println!(
                "traced run {i}: {:.3} s, coverage {:.3}",
                r.wall_s, r.metrics["trace.coverage"]
            );
            Ok(r)
        });
        let attempted = replays_attempted + 1;
        let failed = attempted - replays.len() - usize::from(baseline.is_ok());
        let (Ok((base, _)), Some(last)) = (baseline, replays.last()) else {
            return Ok(Outcome { attempted, failed, metrics: BTreeMap::new() });
        };
        let mut metrics = BTreeMap::new();
        for key in last.metrics.keys() {
            let xs: Vec<f64> = replays.iter().map(|r| r.metrics[key]).collect();
            metrics.insert(key.clone(), median(&xs));
        }
        let walls: Vec<f64> = replays.iter().map(|r| r.wall_s).collect();
        metrics.insert("trace.overhead".into(), median(&walls) / base.phases.total_s);
        metrics.extend(traced::probes(&self.input.tensor, self.threads)?);

        let spans = last
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("detail", Json::Num(s.detail as f64)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("workload", Json::str(self.w.name)),
            ("host", host.clone()),
            ("spans", Json::Arr(spans)),
        ]);
        std::fs::write(spans_path, format!("{doc}\n"))
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        println!("spans: {} ({} spans)", spans_path.display(), last.spans.len());
        Ok(Outcome { attempted, failed, metrics })
    }
}
