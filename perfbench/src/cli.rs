//! Runs `adatm decompose` as a child process and splits its wall time
//! into phases by the arrival time of its stdout lines (Rust line-buffers
//! stdout, so each line arrives when it is printed).

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Wall-time phases of one `adatm decompose` run, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phases {
    /// Spawn to process exit.
    pub total_s: f64,
    /// Spawn to the `backend:` line: read, dedup, plan, structure build.
    pub setup_s: f64,
    /// `backend:` to `als:` line: init and the ALS loop.
    pub solve_s: f64,
    /// `als:` line to exit: factor and lambda files written.
    pub output_s: f64,
}

/// A stdout line with the seconds from spawn to its arrival.
type Line = (f64, String);

/// Splits a run into [`Phases`] from its stdout lines, each stamped with
/// seconds since spawn, and the exit time. The run must print, in order,
/// `backend:`, `als:` and `wrote lambda + <ndim> factors`.
pub fn parse_phases(lines: &[Line], exit_s: f64, ndim: usize) -> Result<Phases, String> {
    let at = |prefix: &str| {
        lines
            .iter()
            .find(|(_, l)| l.starts_with(prefix))
            .map(|(t, _)| *t)
            .ok_or(format!("no '{prefix}' line in the output"))
    };
    let backend = at("backend:")?;
    let als = at("als:")?;
    let wrote = at(&format!("wrote lambda + {ndim} factors"))?;
    if !(0.0 <= backend && backend <= als && als <= wrote && wrote <= exit_s) {
        return Err(format!(
            "output lines out of order (backend {backend}, als {als}, wrote {wrote}, exit {exit_s})"
        ));
    }
    Ok(Phases { total_s: exit_s, setup_s: backend, solve_s: als - backend, output_s: exit_s - als })
}

/// One finished run.
pub struct Run {
    pub phases: Phases,
    /// Peak resident set of the child (`ru_maxrss` from `wait4`), MiB.
    pub peak_rss_mib: f64,
}

/// Runs `bin args..` and splits its wall time into [`Phases`]; see
/// [`exec`] for how it is run and what fails.
pub fn run(
    bin: &Path,
    args: &[String],
    threads: usize,
    ndim: usize,
    timeout: Duration,
) -> Result<Run, String> {
    let (lines, exit_s, maxrss_kib) = exec(bin, args, threads, timeout)?;
    let phases = parse_phases(&lines, exit_s, ndim)?;
    Ok(Run { phases, peak_rss_mib: maxrss_kib as f64 / 1024.0 })
}

/// Runs `bin args..` (a decompose with `--iters 0`, which stops after
/// its set-up) and returns the seconds from spawn to its `backend:`
/// line: the same phase as [`Phases::setup_s`].
pub fn run_setup(
    bin: &Path,
    args: &[String],
    threads: usize,
    timeout: Duration,
) -> Result<f64, String> {
    let (lines, _, _) = exec(bin, args, threads, timeout)?;
    lines
        .iter()
        .find(|(_, l)| l.starts_with("backend:"))
        .map(|(t, _)| *t)
        .ok_or("no 'backend:' line in the output".into())
}

/// Runs `bin args..` with `RAYON_NUM_THREADS=threads` and no
/// `ADATM_PROFILE`, killing it after `timeout`. Returns its stdout lines
/// stamped with seconds since spawn, its exit time and its peak resident
/// set in KiB. Fails on a non-zero exit or a timeout.
fn exec(
    bin: &Path,
    args: &[String],
    threads: usize,
    timeout: Duration,
) -> Result<(Vec<Line>, f64, i64), String> {
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .env("RAYON_NUM_THREADS", threads.to_string())
        .env_remove("ADATM_PROFILE")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((t0.elapsed().as_secs_f64(), line)).is_err() {
                break;
            }
        }
    });
    let mut lines = Vec::new();
    let mut timed_out = false;
    loop {
        let left = timeout.saturating_sub(t0.elapsed());
        match rx.recv_timeout(left) {
            Ok(l) => lines.push(l),
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Still unreaped, so the pid is still this child's.
                let _ = child.kill();
                timed_out = true;
                lines.extend(rx.iter());
                break;
            }
        }
    }
    let (status, maxrss_kib) = reap(child.id() as i32)?;
    let exit_s = t0.elapsed().as_secs_f64();
    reader.join().map_err(|_| "stdout reader panicked".to_string())?;
    if timed_out {
        return Err(format!("timed out after {timeout:?}"));
    }
    if status != 0 {
        let last = lines.last().map_or("", |(_, l)| l.as_str());
        return Err(format!("exited with {status} (last stdout line: '{last}')"));
    }
    Ok((lines, exit_s, maxrss_kib))
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `pid`, returning its exit code (128 + signal when killed) and
/// its peak resident set in KiB. `std::process::Child::wait` does not
/// return resource usage, hence the direct call.
fn reap(pid: i32) -> Result<(i32, i64), String> {
    let mut status = 0i32;
    let mut ru = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as
        // the C `int` and `struct rusage` that wait4 fills; `pid` is our
        // own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
    let code = if status & 0x7f == 0 { (status >> 8) & 0xff } else { 128 + (status & 0x7f) };
    Ok((code, ru.maxrss))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(v: &[(f64, &str)]) -> Vec<(f64, String)> {
        v.iter().map(|(t, l)| (*t, l.to_string())).collect()
    }

    #[test]
    fn splits_phases_on_backend_als_and_wrote_lines() {
        let out = lines(&[
            (0.5, "backend: adaptive"),
            (
                2.0,
                "als: 2 iters, fit 0.00241, converged false, mttkrp 0.851s dense 0.228s fit 0.000s",
            ),
            (2.0, "pp: 3 approximate sweep(s), 2 baseline refresh(es), 1 ms/sweep vs 2 ms exact"),
            (3.25, "wrote lambda + 3 factors under out/"),
        ]);
        let p = parse_phases(&out, 3.5, 3).unwrap();
        assert_eq!(p, Phases { total_s: 3.5, setup_s: 0.5, solve_s: 1.5, output_s: 1.5 });
    }

    #[test]
    fn rejects_missing_or_misordered_lines() {
        let ok = [
            (0.5, "backend: adaptive"),
            (2.0, "als: 1 iters"),
            (3.0, "wrote lambda + 3 factors under o/"),
        ];
        assert!(parse_phases(&lines(&ok[1..]), 3.5, 3).is_err(), "no backend line");
        assert!(parse_phases(&lines(&ok[..2]), 3.5, 3).is_err(), "no wrote line");
        assert!(parse_phases(&lines(&ok), 3.5, 4).is_err(), "wrong factor count");
        assert!(parse_phases(&lines(&ok), 2.5, 3).is_err(), "exit before last line");
        let swapped = [
            (2.0, "backend: adaptive"),
            (0.5, "als: 1 iters"),
            (3.0, "wrote lambda + 3 factors under o/"),
        ];
        assert!(parse_phases(&lines(&swapped), 3.5, 3).is_err(), "als before backend");
    }

    #[test]
    fn reports_exit_code_and_peak_rss_of_a_child() {
        let err = run(
            Path::new("sh"),
            &["-c".into(), "echo backend: x; exit 3".into()],
            1,
            3,
            Duration::from_secs(10),
        );
        assert!(err.err().is_some_and(|e| e.contains("exited with 3")));
        let script = "echo backend: x; echo 'als: 1'; echo 'wrote lambda + 3 factors under o/'";
        let r = run(Path::new("sh"), &["-c".into(), script.into()], 1, 3, Duration::from_secs(10))
            .unwrap();
        assert!(r.peak_rss_mib > 0.0);
        assert!(r.phases.setup_s <= r.phases.total_s);
        let slow = run(Path::new("sleep"), &["5".into()], 1, 3, Duration::from_millis(200));
        assert!(slow.err().is_some_and(|e| e.contains("timed out")));
    }

    #[test]
    fn times_a_set_up_only_run_to_its_backend_line() {
        let sh = |script: &str| {
            run_setup(Path::new("sh"), &["-c".into(), script.into()], 1, Duration::from_secs(10))
        };
        assert!(sh("echo backend: x; echo 'als: 0 iters'").is_ok_and(|t| t >= 0.0));
        assert!(sh("echo 'als: 0 iters'").is_err(), "no backend line");
        assert!(sh("echo backend: x; exit 9").is_err(), "non-zero exit");
    }
}
