//! Workspace automation entry point (`cargo xtask <command>`).
//!
//! Five commands:
//!
//! `lint` — the static-analysis driver run in CI and before every merge.
//! It chains
//!
//! 1. `cargo fmt --all -- --check` against the committed `rustfmt.toml`,
//! 2. `cargo clippy --workspace --all-targets` with a curated deny-list,
//! 3. the structural passes of the `adatm-analyze` engine (see
//!    [`analyze`]) — hot-path allocation and indexing, kernel
//!    panic-freedom, trace-schema conformance, crate-root
//!    `#![forbid(unsafe_code)]`, and README schema-table drift.
//!
//! `analyze` — the full engine run: the structural passes above plus the
//! exhaustive schedule-disjointness prover. `--bless` regenerates each
//! crate's `analyze.toml` allowances from current counts, `--fix-docs`
//! rewrites the README trace-schema table in place, and `--quick`
//! shrinks the prover universe for local iteration.
//!
//! `bench` — builds and runs the kernel bench driver
//! (`bench_kernels`), writes `BENCH_<date>.json` at the workspace root
//! (or a scratch path in `--smoke` mode), and diffs it against the most
//! recent committed snapshot with a configurable `--tolerance`
//! (see [`bench`]). Regressions are advisory by default (shared CI
//! runners are noisy); `--fail-on-regression` makes them exit non-zero.
//!
//! `calibrate` — builds and runs the kernel calibration probe, writing
//! the measured `KernelProfile` (ns per work unit per kernel class, at
//! 1 and N threads) to `PROFILE.txt`. Point `ADATM_PROFILE` at it to
//! make adaptive planning rank by calibrated wall time. `--check`
//! additionally verifies end-to-end that the calibrated plan's measured
//! per-iteration time stays within 10% of the best fixed tree.
//!
//! `trace-check` — validates an NDJSON trace captured with
//! `adatm --trace <path>`: schema, strictly increasing sequence numbers,
//! and properly paired/nested span events (see [`trace`]). CI runs a
//! small traced CP-ALS and pipes the file through this.
//!
//! Exits non-zero if any enforced step fails.

#![forbid(unsafe_code)]

mod analyze;
mod bench;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Extra clippy lints denied on top of `-D warnings`.
const CLIPPY_DENY: &[&str] =
    &["clippy::dbg_macro", "clippy::todo", "clippy::unimplemented", "clippy::mem_forget"];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("analyze") => analyze_cmd(args),
        Some("bench") => bench_cmd(args),
        Some("calibrate") => calibrate_cmd(args),
        Some("trace-check") => trace_check_cmd(args),
        None | Some("help") | Some("--help") => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo xtask <command>\n\ncommands:\n  lint         run the static-analysis suite (rustfmt, clippy, engine passes)\n  analyze      run the adatm-analyze engine: lint passes + disjointness prover\n  bench        run the kernel bench suite and diff against the previous BENCH_*.json\n  calibrate    measure per-kernel-class throughput and write PROFILE.txt\n  trace-check  validate an NDJSON trace file against the schema registry\n\ntrace-check usage:\n  cargo xtask trace-check <trace.ndjson>\n\nanalyze flags:\n  --bless     regenerate analyze.toml allowances from current counts\n  --fix-docs  rewrite the README trace-schema table in place\n  --quick     small prover universe (local iteration; CI runs the full one)\n\nbench flags:\n  --smoke               tiny workloads, scratch output (CI regression smoke)\n  --tolerance <pct>     allowed per-key slowdown vs previous snapshot (default 25)\n  --out <path>          override the output snapshot path\n  --fail-on-regression  exit non-zero on regressions (advisory otherwise)\n\ncalibrate flags:\n  --smoke       tiny probe workload (CI)\n  --check       verify the calibrated plan end-to-end (10% gate vs fixed trees)\n  --out <path>  override the profile path (default PROFILE.txt)"
    );
}

/// The workspace root: the parent of this crate's manifest directory.
fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).to_path_buf()
}

fn cargo_bin() -> String {
    std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string())
}

/// Runs one external step, echoing a pass/fail line. Returns `true` on
/// success.
fn run_step(name: &str, cmd: &mut Command) -> bool {
    println!("xtask: running {name} ...");
    match cmd.status() {
        Ok(status) if status.success() => {
            println!("xtask: {name} ok");
            true
        }
        Ok(status) => {
            eprintln!("xtask: {name} FAILED ({status})");
            false
        }
        Err(err) => {
            eprintln!("xtask: {name} FAILED to start: {err}");
            false
        }
    }
}

/// `cargo xtask analyze [--bless] [--fix-docs] [--quick]`.
fn analyze_cmd(args: impl Iterator<Item = String>) -> ExitCode {
    let mut opts = analyze::Options::default();
    for arg in args {
        match arg.as_str() {
            "--bless" => opts.bless = true,
            "--fix-docs" => opts.fix_docs = true,
            "--quick" => opts.quick = true,
            other => {
                eprintln!("xtask analyze: unknown flag `{other}`\n");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }
    if analyze::run(&workspace_root(), opts) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `cargo xtask bench [--smoke] [--tolerance <pct>] [--out <path>]`.
///
/// Builds `bench_kernels` in release mode, snapshots the previous
/// `BENCH_*.json` (if any) *before* running — a same-day rerun
/// overwrites its own file — then runs the driver and compares
/// per-key timings. Smoke snapshots and full snapshots are never
/// compared against each other.
fn bench_cmd(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut smoke = false;
    let mut tolerance = 25.0f64;
    let mut fail_on_regression = false;
    let mut out_arg: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--fail-on-regression" => fail_on_regression = true,
            "--tolerance" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => tolerance = v,
                None => {
                    eprintln!("xtask bench: --tolerance requires a numeric percent");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(v) => out_arg = Some(PathBuf::from(v)),
                None => {
                    eprintln!("xtask bench: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask bench: unknown flag `{other}`\n");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let root = workspace_root();
    let cargo = cargo_bin();

    // Capture the latest committed snapshot before the run overwrites it.
    let previous = latest_snapshot(&root);

    if !run_step(
        "build bench_kernels (release)",
        Command::new(&cargo).current_dir(&root).args([
            "build",
            "--release",
            "-p",
            "adatm-bench",
            "--bin",
            "bench_kernels",
        ]),
    ) {
        return ExitCode::FAILURE;
    }

    let out_path = out_arg.unwrap_or_else(|| {
        if smoke {
            root.join("target").join("bench_smoke.json")
        } else {
            root.join(bench::snapshot_name(&today_utc(), &snapshot_names(&root)))
        }
    });
    let mut driver = Command::new(root.join("target/release/bench_kernels"));
    driver.current_dir(&root).arg(&out_path);
    if smoke {
        driver.env("ADATM_BENCH_SMOKE", "1");
    }
    if !run_step("bench_kernels", &mut driver) {
        return ExitCode::FAILURE;
    }

    let new_json = match std::fs::read_to_string(&out_path) {
        Ok(s) => s,
        Err(err) => {
            eprintln!("xtask bench: cannot read fresh snapshot {}: {err}", out_path.display());
            return ExitCode::FAILURE;
        }
    };

    let Some((prev_name, prev_json)) = previous else {
        println!("xtask bench: no previous BENCH_*.json snapshot; baseline recorded");
        return ExitCode::SUCCESS;
    };
    if bench::parse_smoke(&prev_json) != bench::parse_smoke(&new_json) {
        println!("xtask bench: previous snapshot {prev_name} has a different smoke flag; skipping comparison");
        return ExitCode::SUCCESS;
    }
    let regressions = bench::compare(
        &bench::parse_records(&prev_json),
        &bench::parse_records(&new_json),
        tolerance,
    );
    if regressions.is_empty() {
        println!("xtask bench: no regressions vs {prev_name} (tolerance {tolerance:.0}%)");
        ExitCode::SUCCESS
    } else {
        for r in &regressions {
            eprintln!("xtask bench: REGRESSION {r}");
        }
        if fail_on_regression {
            eprintln!("xtask bench: FAILED ({} regression(s) vs {prev_name})", regressions.len());
            ExitCode::FAILURE
        } else {
            // Shared runners jitter far beyond any useful tolerance;
            // regressions stay advisory unless the caller opts in.
            eprintln!(
                "xtask bench: {} regression(s) vs {prev_name} (advisory; rerun with --fail-on-regression to enforce)",
                regressions.len()
            );
            ExitCode::SUCCESS
        }
    }
}

/// `cargo xtask calibrate [--smoke] [--check] [--out <path>]`.
///
/// Builds the calibration probe in release mode and runs it; the probe
/// measures per-kernel-class throughput at 1 and N threads and writes
/// the profile. With `--check`, the probe then plans with the fresh
/// profile and fails (exit 1) if the calibrated adaptive backend's
/// measured per-iteration time exceeds the best fixed tree's by more
/// than 10%.
fn calibrate_cmd(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut smoke = false;
    let mut check = false;
    let mut out_arg: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--out" => match args.next() {
                Some(v) => out_arg = Some(PathBuf::from(v)),
                None => {
                    eprintln!("xtask calibrate: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask calibrate: unknown flag `{other}`\n");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }

    let root = workspace_root();
    let cargo = cargo_bin();
    if !run_step(
        "build calibrate (release)",
        Command::new(&cargo).current_dir(&root).args([
            "build",
            "--release",
            "-p",
            "adatm-bench",
            "--bin",
            "calibrate",
        ]),
    ) {
        return ExitCode::FAILURE;
    }

    let out_path = out_arg.unwrap_or_else(|| {
        if smoke {
            root.join("target").join("profile_smoke.txt")
        } else {
            root.join("PROFILE.txt")
        }
    });
    let mut probe = Command::new(root.join("target/release/calibrate"));
    probe.current_dir(&root).arg(&out_path);
    if smoke {
        probe.env("ADATM_BENCH_SMOKE", "1");
    }
    if check {
        probe.env("ADATM_CALIBRATE_CHECK", "1");
    }
    if run_step("calibrate", &mut probe) {
        println!("xtask calibrate: profile at {}", out_path.display());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every `BENCH_*.json` file name at the workspace root.
fn snapshot_names(root: &Path) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(root) else { return Vec::new() };
    entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect()
}

/// The most recently written `BENCH_*.json` at the workspace root, by
/// file modification time (not filename sort — collision-suffixed
/// same-day snapshots sort before the name they collided with). Returns
/// its file name and contents.
fn latest_snapshot(root: &Path) -> Option<(String, String)> {
    let entries: Vec<(String, u64)> = snapshot_names(root)
        .into_iter()
        .filter_map(|name| {
            let mtime = std::fs::metadata(root.join(&name))
                .and_then(|m| m.modified())
                .ok()?
                .duration_since(std::time::UNIX_EPOCH)
                .ok()?
                .as_secs();
            Some((name, mtime))
        })
        .collect();
    let name = bench::latest_by_mtime(&entries)?;
    let json = std::fs::read_to_string(root.join(&name)).ok()?;
    Some((name, json))
}

/// `cargo xtask trace-check <trace.ndjson>`.
///
/// Validates a trace captured with `adatm --trace <path>`: every line a
/// flat JSON event with increasing `seq`, and every span (including
/// every `cpals.iter` iteration span) properly opened and closed.
fn trace_check_cmd(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(path) = args.next() else {
        eprintln!("xtask trace-check: expected a trace file path\n");
        print_usage();
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("xtask trace-check: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    match trace::validate(&text) {
        Ok(summary) => {
            println!(
                "xtask trace-check: {path} ok ({} events, {} spans, {} iterations, {} planner decisions)",
                summary.events, summary.spans, summary.iterations, summary.decisions
            );
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("xtask trace-check: {e}");
            }
            eprintln!("xtask trace-check: {path} FAILED ({} violation(s))", errors.len());
            ExitCode::FAILURE
        }
    }
}

/// Today's UTC date as `YYYY-MM-DD`, via Howard Hinnant's
/// `civil_from_days` — the workspace is offline, so no chrono.
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let cargo = cargo_bin();
    let mut ok = true;

    ok &= run_step(
        "rustfmt",
        Command::new(&cargo).current_dir(&root).args(["fmt", "--all", "--", "--check"]),
    );

    let mut clippy = Command::new(&cargo);
    clippy.current_dir(&root).args([
        "clippy",
        "--workspace",
        "--all-targets",
        "--quiet",
        "--",
        "-D",
        "warnings",
    ]);
    for lint in CLIPPY_DENY {
        clippy.args(["-D", lint]);
    }
    ok &= run_step("clippy", &mut clippy);

    ok &= analyze::run_static(&root);

    if ok {
        println!("xtask lint: all checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: FAILED");
        ExitCode::FAILURE
    }
}
