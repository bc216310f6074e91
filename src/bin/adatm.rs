//! `adatm` — command-line interface to the library.
//!
//! ```text
//! adatm info <tensor>                      dataset characteristics
//! adatm convert <in> <out>                 .tns <-> .adtm by extension
//! adatm generate [opts] -o <out>           synthesize a tensor
//! adatm plan <tensor> [opts]               print the planner's candidates
//! adatm decompose <tensor> [opts]          run CP-ALS / NCP / CP-OPT
//! ```
//!
//! Run any subcommand with `--help` for its options.

use adatm::planner::estimate::NnzEstimator;
use adatm::tensor::gen::{uniform_tensor, zipf_tensor};
use adatm::tensor::io::{
    read_binary_file, read_tns_file, write_binary_file, write_tns_file, IoError,
};
use adatm::tensor::stats::TensorStats;
use adatm::{
    complete, cp_opt, hooi, AdaptiveBackend, AdmissionError, CheckpointConfig, CheckpointStore,
    CompletionOptions, CooBackend, CpAls, CpAlsError, CpAlsOptions, CpModel, CpOptOptions,
    CsfBackend, DtreeBackend, EnvProfile, KernelProfile, MttkrpBackend, Planner, PpConfig,
    SparseTensor, TreeShape, TuckerOptions, UpdateRule,
};
use rayon::prelude::*;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

/// A CLI failure: a one-line message plus the process exit code that
/// classifies it (see `print_usage` for the code table).
struct CliError {
    code: u8,
    msg: String,
}

/// Usage errors: bad flags, missing arguments, unknown subcommands.
const EXIT_USAGE: u8 = 2;
/// The tensor file could not be read or written (filesystem level).
const EXIT_IO: u8 = 3;
/// The tensor file is malformed (bad syntax, implausible header).
const EXIT_PARSE: u8 = 4;
/// The tensor file parsed but carries NaN or infinite values.
const EXIT_NONFINITE: u8 = 5;
/// The solver rejected its input (rank/shape/finiteness validation).
const EXIT_SOLVER_INPUT: u8 = 6;
/// The solver hit an unrecoverable numerical failure.
const EXIT_NUMERICAL: u8 = 7;
/// The checkpoint store could not be opened, or `--resume` found no
/// usable checkpoint (or one inconsistent with the requested run).
const EXIT_CHECKPOINT: u8 = 8;
/// Admission control rejected the run: no strategy fits `--mem-budget`.
const EXIT_ADMISSION: u8 = 9;

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError { code: EXIT_USAGE, msg }
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError { code: EXIT_USAGE, msg: msg.to_string() }
    }
}

impl From<IoError> for CliError {
    fn from(e: IoError) -> Self {
        let code = match &e {
            IoError::Io(_) => EXIT_IO,
            IoError::Parse(_) => EXIT_PARSE,
            IoError::NonFinite(_) => EXIT_NONFINITE,
        };
        CliError { code, msg: e.to_string() }
    }
}

impl From<CpAlsError> for CliError {
    fn from(e: CpAlsError) -> Self {
        let code = match &e {
            CpAlsError::Linalg(_) => EXIT_NUMERICAL,
            CpAlsError::Checkpoint(_) => EXIT_CHECKPOINT,
            _ => EXIT_SOLVER_INPUT,
        };
        CliError { code, msg: e.to_string() }
    }
}

/// Writes one line to stdout, returning [`EXIT_IO`] from the enclosing
/// command when stdout is closed (`adatm plan t.tns | head -1`) instead
/// of panicking the way `println!` does.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(|e| CliError {
            code: EXIT_IO,
            msg: format!("cannot write to stdout: {e}"),
        })?
    };
}

impl From<AdmissionError> for CliError {
    fn from(e: AdmissionError) -> Self {
        CliError { code: EXIT_ADMISSION, msg: e.to_string() }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("info") => cmd_info(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("decompose") => cmd_decompose(&args[1..]),
        Some("--help") | Some("-h") | None => print_usage(),
        Some(other) => Err(CliError::from(format!("unknown subcommand '{other}' (try --help)"))),
    };
    // Flush and tear down any --trace sink before exiting (events are
    // written eagerly, so even an error path leaves a valid NDJSON file).
    adatm::trace::shutdown();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Best effort: a closed stderr must not turn the error into a
            // panic either.
            let _ = writeln!(std::io::stderr(), "error: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

/// Installs the NDJSON file sink when `--trace <path>` was given.
fn install_trace(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let Some(path) = opts.get("trace") else { return Ok(()) };
    if path.is_empty() {
        return Err("--trace requires a file path".into());
    }
    adatm::trace::install_file(Path::new(path))
        .map_err(|e| CliError { code: EXIT_IO, msg: format!("cannot open trace file {path}: {e}") })
}

/// Resolves `ADATM_PROFILE` for planning paths, turning a set-but-broken
/// profile into a typed CLI error instead of a silent analytic fallback.
fn checked_profile() -> Result<Option<KernelProfile>, CliError> {
    match KernelProfile::load_env_checked() {
        EnvProfile::Unset => Ok(None),
        EnvProfile::Loaded { profile, path, age } => {
            adatm::trace::event!(
                "profile.loaded",
                path: path.as_str(),
                age_s: age.map_or(-1i64, |a| a.as_secs() as i64),
                threads: profile.threads
            );
            outln!("calibration: {path} (threads {})", profile.threads);
            Ok(Some(profile))
        }
        EnvProfile::Broken { path, error } => {
            adatm::trace::event!("profile.error", path: path.as_str(), error: error.as_str());
            Err(CliError {
                code: EXIT_USAGE,
                msg: format!(
                    "ADATM_PROFILE points at '{path}' but the profile is unusable: {error}"
                ),
            })
        }
    }
}

fn print_usage() -> Result<(), CliError> {
    outln!(
        "adatm - model-driven sparse CP decomposition\n\n\
         USAGE:\n  adatm info <tensor>\n  adatm convert <in> <out>\n  \
         adatm generate --dims AxBxC [--nnz N] [--skew s|s1,s2,..] [--seed S] -o <out>\n  \
         adatm plan <tensor> [--rank R] [--estimator exact|sampled|analytic] [--budget-mib M]\n      \
         [--trace FILE]\n  \
         adatm decompose <tensor> [--rank R] [--iters N] [--tol T] [--seed S]\n      \
         [--backend adaptive|coo|csf|tree2|tree3|bdt] [--shape '(0 (1 2))']\n      \
         [--algo als|ncp|cpopt|complete|tucker] [--reg R (complete)]\n      \
         [--ranks AxBxC (tucker)] [--out DIR] [--trace FILE] [--drift-factor F]\n      \
         [--checkpoint-dir DIR] [--checkpoint-every N] [--resume] [--mem-budget MIB]\n      \
         [--pp-tol T] [--pp-every K]\n\n\
         Tensor files: FROSTT text (.tns) or adatm binary (.adtm), chosen by extension.\n\n\
         --trace FILE writes a structured NDJSON event log (planner decisions,\n\
         per-stage timings, recoveries); validate it with `cargo xtask trace-check`.\n\n\
         PAIRWISE PERTURBATION (--algo als only):\n  \
         --pp-tol T              enable approximate (pairwise-perturbation) sweeps once\n                          \
         the relative factor change per iteration drops below T\n                          \
         (suggested 0.02); exact sweeps resume on any recovery\n  \
         --pp-every K            force an exact sweep every K iterations while PP is\n                          \
         active (default 5; re-baselines the memoized intermediates)\n\n\
         DURABILITY (--algo als|ncp):\n  \
         --checkpoint-dir DIR    write rotated, checksummed checkpoints under DIR\n  \
         --checkpoint-every N    write every N completed iterations (default 1)\n  \
         --resume                restart from the newest readable checkpoint in DIR,\n                          \
         continuing bitwise-identically to the uninterrupted run\n\n\
         ADMISSION (adaptive backend):\n  \
         --mem-budget MIB        reject or degrade any plan whose predicted resident\n                          \
         memory exceeds the budget\n\n\
         EXIT CODES:\n  \
         0  success\n  \
         2  usage error (bad flag, missing argument, unknown subcommand, or a flag\n     \
         the subcommand or its --algo does not act on)\n  \
         3  file i/o error\n  \
         4  malformed tensor file\n  \
         5  tensor file contains non-finite values\n  \
         6  solver rejected its input (rank/shape/finiteness/sign validation)\n  \
         7  unrecoverable numerical failure during the solve\n  \
         8  checkpoint failure (store unusable, or --resume found nothing readable)\n  \
         9  admission control rejected the run (nothing fits --mem-budget)"
    );
    Ok(())
}

/// Flags `generate` accepts (`-o` is its spelling of `--out`).
const GENERATE_FLAGS: &[&str] = &["dims", "nnz", "skew", "seed", "out"];
/// Flags `plan` accepts.
const PLAN_FLAGS: &[&str] = &["rank", "estimator", "budget-mib", "trace"];
/// Flags `decompose` accepts; [`ALGO_ONLY`] narrows some to a few
/// `--algo`s.
const DECOMPOSE_FLAGS: &[&str] = &[
    "rank",
    "iters",
    "tol",
    "seed",
    "backend",
    "shape",
    "algo",
    "reg",
    "ranks",
    "out",
    "trace",
    "drift-factor",
    "checkpoint-dir",
    "checkpoint-every",
    "resume",
    "mem-budget",
    "pp-tol",
    "pp-every",
];
/// `decompose` flags only some `--algo`s act on, with those algorithms.
const ALGO_ONLY: &[(&str, &[&str])] = &[
    ("checkpoint-dir", &["als", "ncp"]),
    ("checkpoint-every", &["als", "ncp"]),
    ("resume", &["als", "ncp"]),
    ("pp-tol", &["als"]),
    ("pp-every", &["als"]),
    ("drift-factor", &["als", "ncp"]),
    ("reg", &["complete"]),
    ("ranks", &["tucker"]),
];

/// Splits `args` into positionals and `--flag value` options (flags with
/// no following value or followed by another flag get an empty value).
/// A flag not in `accepted` is a usage error: a mistyped flag must not
/// silently fall back to a default.
fn parse_args(
    args: &[String],
    accepted: &[&str],
) -> Result<(Vec<String>, HashMap<String, String>), String> {
    let mut pos = Vec::new();
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if !accepted.contains(&name) {
                return Err(format!("unknown flag '--{name}' (try --help)"));
            }
            let val = if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                i += 1;
                args[i].clone()
            } else {
                String::new()
            };
            opts.insert(name.to_string(), val);
        } else if a == "-o" {
            if !accepted.contains(&"out") {
                return Err("unknown flag '-o' (try --help)".into());
            }
            if i + 1 >= args.len() {
                return Err("-o requires a path".into());
            }
            i += 1;
            opts.insert("out".to_string(), args[i].clone());
        } else {
            pos.push(a.clone());
        }
        i += 1;
    }
    Ok((pos, opts))
}

fn opt_parse<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for --{key}")),
    }
}

/// Rejects input no solver or planner accepts — rank 0, fewer than two
/// modes — with [`EXIT_SOLVER_INPUT`] before any constructor runs (the
/// planner and the side solvers assert on both).
fn check_solver_input(t: &SparseTensor, rank: usize) -> Result<(), CliError> {
    if rank == 0 {
        return Err(CpAlsError::ZeroRank.into());
    }
    if t.ndim() < 2 {
        return Err(CpAlsError::TooFewModes { ndim: t.ndim() }.into());
    }
    Ok(())
}

/// Wraps a filesystem-level failure on `path` as [`EXIT_IO`].
fn fs_err(path: &str, e: std::io::Error) -> CliError {
    file_err(path, IoError::Io(e))
}

/// Classifies a tensor-file error and names the file in its message.
fn file_err(path: &str, e: IoError) -> CliError {
    let CliError { code, msg } = e.into();
    CliError { code, msg: format!("{path}: {msg}") }
}

fn load(path: &str) -> Result<SparseTensor, CliError> {
    let p = Path::new(path);
    let ext = p.extension().and_then(|e| e.to_str()).unwrap_or("");
    let mut t = match ext {
        "adtm" => read_binary_file(p),
        _ => read_tns_file(p),
    }
    .map_err(|e| file_err(path, e))?;
    t.dedup_sum();
    Ok(t)
}

fn store(t: &SparseTensor, path: &str) -> Result<(), CliError> {
    let p = Path::new(path);
    let ext = p.extension().and_then(|e| e.to_str()).unwrap_or("");
    match ext {
        "adtm" => write_binary_file(t, p),
        _ => write_tns_file(t, p),
    }
    .map_err(|e| file_err(path, e))
}

fn cmd_info(args: &[String]) -> Result<(), CliError> {
    let (pos, _) = parse_args(args, &[])?;
    let path = pos.first().ok_or("info requires a tensor file")?;
    let t = load(path)?;
    let s = TensorStats::compute(&t);
    outln!("file      : {path}");
    outln!("order     : {}", s.order);
    outln!("dims      : {}", s.dims.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(" x "));
    outln!("nnz       : {}", s.nnz);
    outln!("density   : {:.3e}", s.density);
    outln!("per-mode distinct: {:?}", s.distinct_per_mode);
    outln!("half-split collapse: {:.2} | {:.2}", s.half_split_collapse.0, s.half_split_collapse.1);
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), CliError> {
    let (pos, _) = parse_args(args, &[])?;
    if pos.len() != 2 {
        return Err("convert requires <in> and <out>".into());
    }
    let t = load(&pos[0])?;
    store(&t, &pos[1])?;
    outln!("wrote {} ({} nnz)", pos[1], t.nnz());
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    let (_, opts) = parse_args(args, GENERATE_FLAGS)?;
    let dims_s = opts.get("dims").ok_or("generate requires --dims AxBxC")?;
    let dims: Vec<usize> = dims_s
        .split(['x', 'X'])
        .map(|d| d.parse().map_err(|_| format!("bad dims '{dims_s}'")))
        .collect::<Result<_, _>>()?;
    let nnz = opt_parse(&opts, "nnz", 100_000usize)?;
    let seed = opt_parse(&opts, "seed", 0u64)?;
    let skews: Vec<f64> = match opts.get("skew") {
        None => vec![0.0; dims.len()],
        Some(s) if s.contains(',') => s
            .split(',')
            .map(|x| x.parse().map_err(|_| format!("bad skew '{s}'")))
            .collect::<Result<_, _>>()?,
        Some(s) => {
            let v: f64 = s.parse().map_err(|_| format!("bad skew '{s}'"))?;
            vec![v; dims.len()]
        }
    };
    if skews.len() != dims.len() {
        return Err("--skew needs one value or one per mode".into());
    }
    let out = opts.get("out").ok_or("generate requires -o <out>")?;
    let t = if skews.iter().all(|&s| s == 0.0) {
        uniform_tensor(&dims, nnz, seed)
    } else {
        zipf_tensor(&dims, nnz, &skews, seed)
    };
    store(&t, out)?;
    outln!("generated {} nnz into {out}", t.nnz());
    Ok(())
}

fn parse_estimator(opts: &HashMap<String, String>) -> Result<NnzEstimator, String> {
    match opts.get("estimator").map(String::as_str) {
        None | Some("sampled") => Ok(NnzEstimator::default()),
        Some("exact") => Ok(NnzEstimator::Exact),
        Some("analytic") => Ok(NnzEstimator::Analytic),
        Some(other) => Err(format!("unknown estimator '{other}'")),
    }
}

fn cmd_plan(args: &[String]) -> Result<(), CliError> {
    let (pos, opts) = parse_args(args, PLAN_FLAGS)?;
    install_trace(&opts)?;
    let path = pos.first().ok_or("plan requires a tensor file")?;
    let t = load(path)?;
    let rank = opt_parse(&opts, "rank", 16usize)?;
    check_solver_input(&t, rank)?;
    let mut planner = Planner::new(&t, rank).estimator(parse_estimator(&opts)?);
    if let Some(profile) = checked_profile()? {
        planner = planner.calibration(profile);
    }
    if let Some(m) = opts.get("budget-mib") {
        let mib: f64 = m.parse().map_err(|_| format!("bad --budget-mib '{m}'"))?;
        planner = planner.memory_budget((mib * 1024.0 * 1024.0) as usize);
    }
    let plan = planner.plan();
    outln!(
        "{} candidates ({} estimator evaluations); chosen: {}",
        plan.candidates.len(),
        plan.estimator_evals,
        plan.shape
    );
    outln!(
        "{:<20} {:>14} {:>14} {:>12} {:>7}  shape",
        "label",
        "flops/iter",
        "traffic-MiB/it",
        "resident-MiB",
        "fits"
    );
    for c in &plan.candidates {
        outln!(
            "{:<20} {:>14.3e} {:>14.1} {:>12.1} {:>7}  {}{}",
            c.label,
            c.cost.flops_per_iter,
            c.cost.traffic_bytes_per_iter / (1024.0 * 1024.0),
            c.cost.resident_bytes() / (1024.0 * 1024.0),
            c.fits_budget,
            c.shape,
            if c.shape == plan.shape { "  <== chosen" } else { "" }
        );
    }
    if let Some(ns) = plan.predicted_ns {
        let dispatch = if plan.use_coo {
            "coo"
        } else if plan.use_csf {
            "csf"
        } else {
            "tree"
        };
        outln!(
            "calibrated: predicted {ns:.0} ns/iter, dispatch {dispatch} (csf {:.0} ns, coo {:.0} ns)",
            plan.csf_predicted_ns.unwrap_or(f64::NAN),
            plan.coo_predicted_ns.unwrap_or(f64::NAN)
        );
    }
    if opts.contains_key("budget-mib") {
        // The table above is informational; admission is the hard gate a
        // decompose run with the same budget would face.
        let admitted = planner.plan_admitted()?;
        if admitted.use_coo && !plan.use_coo {
            outln!("admission: degraded to the fused COO baseline");
        } else {
            outln!("admission: admitted within budget");
        }
    }
    Ok(())
}

/// Parses `--mem-budget MIB` into bytes (`None` when absent).
fn parse_mem_budget(opts: &HashMap<String, String>) -> Result<Option<usize>, CliError> {
    let Some(m) = opts.get("mem-budget") else { return Ok(None) };
    let mib: f64 = m.parse().map_err(|_| format!("bad --mem-budget '{m}'"))?;
    if !mib.is_finite() || mib <= 0.0 {
        return Err(format!("--mem-budget must be a positive MiB count, got '{m}'").into());
    }
    Ok(Some((mib * 1024.0 * 1024.0) as usize))
}

fn make_backend(
    t: &SparseTensor,
    rank: usize,
    opts: &HashMap<String, String>,
    profile: Option<KernelProfile>,
    mem_budget: Option<usize>,
) -> Result<Box<dyn MttkrpBackend>, CliError> {
    if let Some(s) = opts.get("shape") {
        let shape: TreeShape = s.parse().map_err(|e| format!("{e}"))?;
        shape.validate();
        return Ok(Box::new(DtreeBackend::new(t, &shape, rank)));
    }
    Ok(match opts.get("backend").map(String::as_str) {
        None | Some("adaptive") => {
            let mut planner = Planner::new(t, rank);
            if let Some(p) = profile {
                planner = planner.calibration(p);
            }
            if let Some(b) = mem_budget {
                planner = planner.memory_budget(b);
            }
            // Admission control is a hard gate: a rejected budget exits
            // with EXIT_ADMISSION before any engine structures exist.
            let plan = planner.plan_admitted()?;
            Box::new(AdaptiveBackend::from_plan(t, rank, plan))
        }
        Some("coo") => Box::new(CooBackend::new(t)),
        Some("csf") => Box::new(CsfBackend::new(t)),
        Some("tree2") => Box::new(DtreeBackend::two_level(t, rank)),
        Some("tree3") => Box::new(DtreeBackend::three_level(t, rank)),
        Some("bdt") => Box::new(DtreeBackend::balanced_binary(t, rank)),
        Some(other) => return Err(format!("unknown backend '{other}'").into()),
    })
}

/// Factor rows formatted per parallel task. The writer formats a window
/// of `WRITE_CHUNK * current_num_threads()` rows at a time, so its buffers
/// stay a few MiB however large the factor.
const WRITE_CHUNK: usize = 2048;

/// Writes `lambda.txt` and one `factor_<d>.txt` per mode under `dir`: one
/// line per row, entries in `f64`'s `Display` form separated by single
/// spaces. The bytes do not depend on the thread count.
fn write_factors(dir: &str, model: &adatm::CpModel) -> Result<(), CliError> {
    std::fs::create_dir_all(dir).map_err(|e| fs_err(dir, e))?;
    let lpath = format!("{dir}/lambda.txt");
    let mut lambda = String::new();
    for l in &model.lambda {
        push_row(&mut lambda, std::slice::from_ref(l));
    }
    std::fs::write(&lpath, lambda).map_err(|e| fs_err(&lpath, e))?;
    let mut chunks = vec![String::new(); rayon::current_num_threads()];
    for (d, f) in model.factors.iter().enumerate() {
        let path = format!("{dir}/factor_{d}.txt");
        write_factor(&path, f, &mut chunks).map_err(|e| fs_err(&path, e))?;
    }
    outln!("wrote lambda + {} factors under {dir}/", model.factors.len());
    Ok(())
}

/// Writes the rows of `f` to `path`, formatting up to `chunks.len()`
/// chunks of [`WRITE_CHUNK`] rows in parallel and writing them in order.
fn write_factor(path: &str, f: &adatm::Mat, chunks: &mut [String]) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    let window = WRITE_CHUNK * chunks.len();
    for start in (0..f.nrows()).step_by(window) {
        let end = f.nrows().min(start + window);
        let used = (end - start).div_ceil(WRITE_CHUNK);
        let live = &mut chunks[..used];
        live.par_chunks_mut(1).enumerate().for_each(|(c, one)| {
            let lo = start + c * WRITE_CHUNK;
            for s in one {
                s.clear();
                for i in lo..end.min(lo + WRITE_CHUNK) {
                    push_row(s, f.row(i));
                }
            }
        });
        for s in live.iter() {
            file.write_all(s.as_bytes())?;
        }
    }
    Ok(())
}

/// Appends `row` as one text line: `Display` forms joined by spaces.
fn push_row(s: &mut String, row: &[f64]) {
    for (j, x) in row.iter().enumerate() {
        if j > 0 {
            s.push(' ');
        }
        // Formatting into a `String` cannot fail.
        let _ = write!(s, "{x}");
    }
    s.push('\n');
}

fn cmd_decompose(args: &[String]) -> Result<(), CliError> {
    let (pos, opts) = parse_args(args, DECOMPOSE_FLAGS)?;
    let algo = opts.get("algo").map_or("als", String::as_str);
    let rule = match algo {
        "als" => Some(UpdateRule::LeastSquares),
        "ncp" => Some(UpdateRule::Multiplicative),
        "cpopt" | "complete" | "tucker" => None,
        other => return Err(format!("unknown algorithm '{other}'").into()),
    };
    for (flag, algos) in ALGO_ONLY {
        if opts.contains_key(*flag) && !algos.contains(&algo) {
            return Err(format!("--{flag} applies to --algo {} only", algos.join("|")).into());
        }
    }
    install_trace(&opts)?;
    let path = pos.first().ok_or("decompose requires a tensor file")?;
    let t = load(path)?;
    let rank = opt_parse(&opts, "rank", 16usize)?;
    let iters = opt_parse(&opts, "iters", 50usize)?;
    let tol = opt_parse(&opts, "tol", 1e-5f64)?;
    let seed = opt_parse(&opts, "seed", 0u64)?;
    check_solver_input(&t, rank)?;
    if algo == "tucker" {
        // Tucker runs on TTM chains directly, not an MTTKRP backend.
        let ranks: Vec<usize> = match opts.get("ranks") {
            Some(s) => s
                .split(['x', 'X'])
                .map(|r| r.parse().map_err(|_| format!("bad --ranks '{s}'")))
                .collect::<Result<_, _>>()?,
            None => vec![rank.min(8); t.ndim()],
        };
        if ranks.len() != t.ndim() {
            return Err("--ranks needs one value per mode".into());
        }
        if ranks.iter().zip(t.dims()).any(|(&r, &d)| r == 0 || r > d) {
            return Err(CliError {
                code: EXIT_SOLVER_INPUT,
                msg: format!("--ranks must lie in 1..=mode size for mode sizes {:?}", t.dims()),
            });
        }
        let res = hooi(&t, &TuckerOptions::new(ranks).max_iters(iters).tol(tol).seed(seed));
        outln!(
            "tucker: {} iters, fit {:.5}, converged {}, core norm {:.4}",
            res.iters,
            res.final_fit(),
            res.converged,
            res.model.core_norm()
        );
        return Ok(());
    }
    if algo == "complete" {
        // Completion fits observed entries directly, not through an
        // MTTKRP backend, so no backend is planned or built.
        let reg = opt_parse(&opts, "reg", 0.1f64)?;
        let o = CompletionOptions::new(rank).max_iters(iters).tol(tol).reg(reg).seed(seed);
        let res = complete(&t, &o);
        outln!(
            "complete: {} iters, train RMSE {:.5}, converged {}",
            res.iters,
            res.final_rmse(),
            res.converged
        );
        if let Some(dir) = opts.get("out") {
            write_factors(dir, &res.model)?;
        }
        return Ok(());
    }
    // The planner only consults ADATM_PROFILE on the adaptive path; a
    // set-but-broken profile there is a typed usage error, not a silent
    // fallback to analytic costs.
    let uses_planner = !opts.contains_key("shape")
        && matches!(opts.get("backend").map(String::as_str), None | Some("adaptive"));
    let profile = if uses_planner { checked_profile()? } else { None };
    let mem_budget = parse_mem_budget(&opts)?;
    if mem_budget.is_some() && !uses_planner {
        return Err("--mem-budget only applies to the adaptive (planner) backend".into());
    }
    let mut backend = make_backend(&t, rank, &opts, profile, mem_budget)?;
    outln!("backend: {}", backend.name());
    let model = match rule {
        Some(rule) => {
            let o = CpAlsOptions::new(rank).max_iters(iters).tol(tol).seed(seed).update(rule);
            run_alternating(&t, backend.as_mut(), &opts, o, algo)?
        }
        None => {
            let o = CpOptOptions::new(rank).max_iters(iters).tol(tol).seed(seed);
            let res = cp_opt(&t, &mut backend, &o)?;
            outln!(
                "cpopt: {} iters, objective {:.5e}, converged {}",
                res.iters,
                res.objective_history.last().copied().unwrap_or(f64::NAN),
                res.converged
            );
            res.model
        }
    };
    // Free the tensor and the backend's structures first, so the writer's
    // buffers never add to the run's peak memory.
    drop(backend);
    drop(t);
    if let Some(dir) = opts.get("out") {
        write_factors(dir, &model)?;
    }
    Ok(())
}

/// Runs `--algo als|ncp` (one [`CpAls`] session; `o` carries the update
/// rule) with the drift, pairwise-perturbation and checkpoint flags, from
/// scratch or `--resume`d, and prints the summary lines under `label`.
fn run_alternating(
    t: &SparseTensor,
    backend: &mut dyn MttkrpBackend,
    opts: &HashMap<String, String>,
    mut o: CpAlsOptions,
    label: &str,
) -> Result<CpModel, CliError> {
    o = o.drift_factor(opt_parse(opts, "drift-factor", 2.0f64)?);
    if opts.contains_key("pp-tol") || opts.contains_key("pp-every") {
        let pp_tol = opt_parse(opts, "pp-tol", 0.02f64)?;
        let pp_every = opt_parse(opts, "pp-every", 5usize)?;
        if !pp_tol.is_finite() || pp_tol <= 0.0 {
            return Err("--pp-tol must be positive".into());
        }
        o = o.pp(PpConfig::new().tol(pp_tol).every(pp_every));
    }
    let ckpt_dir = opts.get("checkpoint-dir");
    let resume = opts.contains_key("resume");
    if (resume || opts.contains_key("checkpoint-every")) && ckpt_dir.is_none() {
        return Err("--resume/--checkpoint-every need --checkpoint-dir".into());
    }
    if let Some(dir) = ckpt_dir {
        if dir.is_empty() {
            return Err("--checkpoint-dir requires a path".into());
        }
        let every = opt_parse(opts, "checkpoint-every", 1usize)?;
        o = o.checkpoint(CheckpointConfig::new(dir).every_iters(every));
    }
    let res = match ckpt_dir.filter(|_| resume) {
        Some(dir) => {
            let outcome = CheckpointStore::load_latest(Path::new(dir))
                .map_err(|e| CliError { code: EXIT_CHECKPOINT, msg: e.to_string() })?;
            // The run continues the checkpoint's trajectory, so its seed
            // wins over --seed (a mismatch would be a typed resume error,
            // not a silently different model).
            if outcome.checkpoint.seed != o.seed && opts.contains_key("seed") {
                outln!(
                    "note: --seed {} ignored; resuming with checkpoint seed {}",
                    o.seed,
                    outcome.checkpoint.seed
                );
            }
            outln!(
                "resume: {} (generation {}, iteration {}, {} corrupt generation(s) skipped)",
                outcome.path.display(),
                outcome.generation,
                outcome.checkpoint.next_iter,
                outcome.fallbacks.len()
            );
            o = o.seed(outcome.checkpoint.seed);
            CpAls::new(o).resume_from(t, backend, outcome.checkpoint)?
        }
        None => CpAls::new(o).run(t, backend)?,
    };
    outln!(
        "{label}: {} iters, fit {:.5}, converged {}, mttkrp {:.3}s dense {:.3}s fit {:.3}s",
        res.iters,
        res.final_fit(),
        res.converged,
        res.timings.mttkrp.as_secs_f64(),
        res.timings.dense.as_secs_f64(),
        res.timings.fit.as_secs_f64()
    );
    if res.diagnostics.pp_sweeps > 0 {
        outln!(
            "pp: {} approximate sweep(s), {} baseline refresh(es), {:.2} ms/sweep vs {:.2} ms exact",
            res.diagnostics.pp_sweeps,
            res.diagnostics.pp_refreshes,
            res.diagnostics.pp_sweep_ns.unwrap_or(f64::NAN) / 1e6,
            res.diagnostics.exact_sweep_ns.unwrap_or(f64::NAN) / 1e6
        );
    }
    if res.diagnostics.recoveries > 0 || res.diagnostics.degraded {
        outln!(
            "resilience: {} breakdown event(s), {} recover(ies), stop: {:?}",
            res.diagnostics.events.len(),
            res.diagnostics.recoveries,
            res.diagnostics.stop
        );
    }
    if opts.contains_key("trace") {
        outln!("trace: {}", res.trace_summary());
    }
    Ok(res.model)
}
