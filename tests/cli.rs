//! Integration tests for the `adatm` CLI binary, driven through
//! `std::process` against a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn adatm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_adatm"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adatm_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = adatm().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("decompose"));
    assert!(text.contains("generate"));
    assert!(text.contains("EXIT CODES"), "--help must document the exit-code table");
}

#[test]
fn unknown_subcommand_exits_with_usage_code() {
    let out = adatm().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    // A flag the subcommand, or its --algo, would not act on is a usage
    // error too, never a silently ignored option. `{t}` is a valid tensor
    // and `{ck}` a checkpoint directory no rejected run may create.
    let dir = tmpdir("usage");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "10x10x10", "--nnz", "100", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let ck = dir.join("ck");
    let (t, ck_s) = (tns.to_str().unwrap(), ck.to_str().unwrap());
    let cases: [&[&str]; 12] = [
        &["decompose", t, "--iter", "3"],
        &["decompose", t, "--algo", "ncp", "--checkpoint-dir", ck_s, "--pp-tol", "0.1"],
        &["decompose", t, "--algo", "ncp", "--pp-every", "3"],
        &["decompose", t, "--algo", "cpopt", "--resume"],
        &["decompose", t, "--algo", "cpopt", "--checkpoint-dir", ck_s],
        &["decompose", t, "--algo", "complete", "--checkpoint-every", "2"],
        &["decompose", t, "--algo", "tucker", "--pp-tol", "0.1"],
        &["decompose", t, "--algo", "tucker", "--drift-factor", "3"],
        &["decompose", t, "--algo", "als", "--ranks", "2x2x2"],
        &["decompose", t, "--algo", "svd"],
        &["plan", t, "--iters", "2"],
        &["info", t, "-o", ck_s],
    ];
    for argv in cases {
        let out = adatm().args(argv).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{argv:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!ck.exists(), "{argv:?} created the checkpoint directory");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_file_exits_with_io_code() {
    let path = "/nonexistent/adatm_no_such_file.tns";
    let out = adatm().args(["info", path]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains(path), "the error must name the file: {stderr}");
}

#[test]
fn malformed_tensor_exits_with_parse_code() {
    let dir = tmpdir("parse_err");
    let tns = dir.join("bad.tns");
    std::fs::write(&tns, "1 1 2.0\nnot a data line\n").unwrap();
    let out = adatm().arg("info").arg(&tns).output().unwrap();
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_finite_tensor_exits_with_nonfinite_code() {
    let dir = tmpdir("nonfinite");
    let tns = dir.join("nan.tns");
    std::fs::write(&tns, "1 1 2.0\n2 2 nan\n").unwrap();
    let out = adatm().arg("info").arg(&tns).output().unwrap();
    assert_eq!(out.status.code(), Some(5), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every argv in the table runs against every bad input — each
/// `decompose` on both the adaptive (planner) backend and `--backend
/// coo` — and must exit with the input's documented code, never with a
/// panic (101).
#[test]
fn invalid_solver_input_exits_with_documented_code() {
    let dir = tmpdir("badinput");
    let three_mode = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "10x10x10", "--nnz", "100", "-o"])
        .arg(&three_mode)
        .status()
        .unwrap();
    let one_mode = dir.join("one.tns");
    std::fs::write(&one_mode, "1 2.0\n2 1.0\n3 0.5\n").unwrap();
    let negative = dir.join("neg.tns");
    let mut lines = String::new();
    for i in 1..=5 {
        for j in 1..=4 {
            for k in 1..=3 {
                let v = if (i, j, k) == (2, 3, 1) { -1.5 } else { (i * j + k) as f64 * 0.25 };
                lines.push_str(&format!("{i} {j} {k} {v}\n"));
            }
        }
    }
    std::fs::write(&negative, lines).unwrap();

    let commands: [&[&str]; 6] = [
        &["plan"],
        &["decompose", "--algo", "als"],
        &["decompose", "--algo", "ncp"],
        &["decompose", "--algo", "cpopt"],
        &["decompose", "--algo", "complete"],
        &["decompose", "--algo", "tucker"],
    ];
    // (input, rank, expected code for each command above)
    let cases = [
        (&three_mode, "0", [6, 6, 6, 6, 6, 6]),
        (&one_mode, "2", [6, 6, 6, 6, 6, 6]),
        (&negative, "2", [0, 0, 6, 0, 0, 0]),
    ];
    for (input, rank, codes) in &cases {
        for (argv, &code) in commands.iter().zip(codes) {
            let backends: &[_] = if argv[0] == "plan" { &[None] } else { &[None, Some("coo")] };
            for backend in backends {
                let mut cmd = adatm();
                cmd.arg(argv[0]).arg(input).args(&argv[1..]);
                cmd.args(["--rank", rank]);
                if argv[0] == "decompose" {
                    cmd.args(["--iters", "2"]);
                }
                if let Some(b) = backend {
                    cmd.args(["--backend", b]);
                }
                let out = cmd.output().unwrap();
                assert_eq!(
                    out.status.code(),
                    Some(code),
                    "{argv:?} --rank {rank} --backend {backend:?} on {}: {}",
                    input.display(),
                    String::from_utf8_lossy(&out.stderr)
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_stdout_exits_with_io_code() {
    use std::io::{BufRead, BufReader};
    let dir = tmpdir("closedpipe");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "30x30x30x30x30", "--nnz", "40000", "--seed", "1", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    // `--budget-mib` re-plans for admission after printing the candidate
    // table, so the last line is written well after the first one: by
    // then the reader below has closed the pipe.
    let mut child = adatm()
        .arg("plan")
        .arg(&tns)
        .args(["--rank", "4", "--budget-mib", "10000"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    assert!(first.contains("candidates"), "first line: {first}");
    // The reader (and with it the pipe's read end) is dropped here.
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("stdout"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generate_info_convert_round_trip() {
    let dir = tmpdir("roundtrip");
    let tns = dir.join("t.tns");
    let bin = dir.join("t.adtm");

    let out = adatm()
        .args([
            "generate", "--dims", "40x50x30", "--nnz", "2000", "--skew", "0.7", "--seed", "3", "-o",
        ])
        .arg(&tns)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = adatm().arg("info").arg(&tns).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("order     : 3"), "{text}");
    assert!(text.contains("nnz       : 2000"), "{text}");

    let out = adatm().arg("convert").arg(&tns).arg(&bin).output().unwrap();
    assert!(out.status.success());
    let out = adatm().arg("info").arg(&bin).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("nnz       : 2000"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plan_prints_candidates() {
    let dir = tmpdir("plan");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "20x30x25x15", "--nnz", "1500", "--skew", "0.8", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let trace = dir.join("plan.ndjson");
    let out = adatm()
        .args(["plan"])
        .arg(&tns)
        .args(["--rank", "8", "--estimator", "exact", "--trace"])
        .arg(&trace)
        .env_remove("ADATM_PROFILE")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("chosen"), "{text}");
    assert!(text.contains("bdt"), "{text}");
    // An uncalibrated plan has no predictions: no `*predicted_ns` field,
    // in particular no negative placeholder.
    let trace = std::fs::read_to_string(&trace).unwrap();
    assert!(trace.contains("\"planner.decision\""), "{trace}");
    assert!(!trace.contains("predicted_ns"), "{trace}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decompose_als_writes_factors() {
    let dir = tmpdir("als");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "25x20x15", "--nnz", "1000", "--seed", "5", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let factors = dir.join("factors");
    let out = adatm()
        .arg("decompose")
        .arg(&tns)
        .args(["--rank", "4", "--iters", "5", "--backend", "bdt", "--out"])
        .arg(&factors)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(factors.join("lambda.txt").exists());
    for d in 0..3 {
        let f = factors.join(format!("factor_{d}.txt"));
        assert!(f.exists());
        let lines = std::fs::read_to_string(&f).unwrap().lines().count();
        assert_eq!(lines, [25, 20, 15][d]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reformats every number of a factor file with `format!("{x}")`, one
/// row per line, joined by single spaces: the writer's documented form.
fn reference_format(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let row: Vec<String> =
            line.split(' ').map(|x| format!("{}", x.parse::<f64>().unwrap())).collect();
        out.push_str(&row.join(" "));
        out.push('\n');
    }
    out
}

#[test]
fn factor_files_span_writer_windows_and_match_at_any_thread_count() {
    let dir = tmpdir("windows");
    let tns = dir.join("t.tns");
    // Mode 0 (7000 rows) is longer than one writer window at 1 thread
    // (2048 rows) and at 3 threads (6144 rows). Completion is the solver
    // whose model does not depend on the thread count (the parallel
    // MTTKRP kernels reduce in a thread-count-dependent order), so equal
    // files at 1 and 3 threads pin the parser, dedup and writer.
    let gen = adatm()
        .args(["generate", "--dims", "7000x40x30", "--nnz", "30000", "--seed", "3", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    assert!(gen.success());
    let mut written = Vec::new();
    for threads in ["1", "3"] {
        let out_dir = dir.join(format!("factors-{threads}"));
        let out = adatm()
            .env("RAYON_NUM_THREADS", threads)
            .arg("decompose")
            .arg(&tns)
            .args(["--rank", "5", "--iters", "2", "--algo", "complete", "--out"])
            .arg(&out_dir)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let mut files = Vec::new();
        for (name, rows) in
            [("lambda.txt", 5), ("factor_0.txt", 7000), ("factor_1.txt", 40), ("factor_2.txt", 30)]
        {
            let text = std::fs::read_to_string(out_dir.join(name)).unwrap();
            assert_eq!(text.lines().count(), rows, "{name} at {threads} thread(s)");
            assert_eq!(text, reference_format(&text), "{name} at {threads} thread(s)");
            files.push(text);
        }
        written.push(files);
    }
    assert!(written[0] == written[1], "factor files differ between 1 and 3 threads");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decompose_with_explicit_shape() {
    let dir = tmpdir("shape");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "15x20x10x12", "--nnz", "800", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let out = adatm()
        .arg("decompose")
        .arg(&tns)
        .args(["--rank", "3", "--iters", "3", "--shape", "((0 2) (1 3))"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("fit"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decompose_ncp_and_cpopt_run() {
    let dir = tmpdir("algos");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "12x15x10", "--nnz", "500", "--skew", "0.5", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    for algo in ["ncp", "cpopt", "complete"] {
        let out = adatm()
            .arg("decompose")
            .arg(&tns)
            .args(["--rank", "3", "--iters", "5", "--algo", algo, "--backend", "coo"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(algo));
        // Completion never touches an MTTKRP backend, so none is built.
        assert_eq!(text.contains("backend:"), algo != "complete", "{algo}: {text}");
    }
    // NCP checkpoints and resumes like ALS: the resumed run continues
    // from the newest generation to the same summary.
    let ck = dir.join("ck");
    let ncp = |extra: &[&str]| {
        let out = adatm()
            .arg("decompose")
            .arg(&tns)
            .args(["--rank", "3", "--algo", "ncp", "--backend", "coo", "--tol", "0"])
            .args(["--checkpoint-every", "2", "--checkpoint-dir"])
            .arg(&ck)
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = ncp(&["--iters", "5"]);
    assert!(first.contains("ncp: 5 iters"), "{first}");
    assert!(ck.read_dir().unwrap().next().is_some(), "no checkpoint written");
    let resumed = ncp(&["--iters", "8", "--resume"]);
    assert!(resumed.contains("iteration 4"), "{resumed}");
    assert!(resumed.contains("ncp: 8 iters"), "{resumed}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decompose_tucker_runs() {
    let dir = tmpdir("tucker");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "20x15x12", "--nnz", "600", "--skew", "0.6", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let out = adatm()
        .arg("decompose")
        .arg(&tns)
        .args(["--algo", "tucker", "--ranks", "3x3x3", "--iters", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("tucker"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_shape_is_rejected() {
    let dir = tmpdir("badshape");
    let tns = dir.join("t.tns");
    adatm()
        .args(["generate", "--dims", "10x10x10", "--nnz", "100", "-o"])
        .arg(&tns)
        .status()
        .unwrap();
    let out = adatm()
        .arg("decompose")
        .arg(&tns)
        .args(["--rank", "2", "--shape", "(0 1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
