//! The correctness check run after every measured run: reload the
//! written factors, recompute their fit, compare it to the reference.

use adatm_core::{CheckpointStore, CpModel};
use adatm_linalg::Mat;
use adatm_tensor::SparseTensor;
use std::path::Path;

/// Largest allowed relative distance between a run's fit and the
/// reference fit. Without pairwise perturbation a run differs from the
/// reference only in kernel summation order. With it, approximate sweeps
/// take a slightly different path to a nearby fit; both tolerances are
/// far below what a broken model (garbage, zero or misplaced factors)
/// would show.
pub fn fit_tolerance(pp: bool) -> f64 {
    if pp {
        0.05
    } else {
        1e-4
    }
}

/// Parses a whitespace-separated `nrows x ncols` matrix, one row per
/// line, every value finite.
pub fn parse_matrix(text: &str, nrows: usize, ncols: usize, what: &str) -> Result<Mat, String> {
    let mut data = Vec::with_capacity(nrows * ncols);
    let mut rows = 0;
    for (i, line) in text.lines().enumerate() {
        let before = data.len();
        for tok in line.split_whitespace() {
            let x: f64 =
                tok.parse().map_err(|_| format!("{what}: bad number '{tok}' on line {}", i + 1))?;
            if !x.is_finite() {
                return Err(format!("{what}: non-finite value on line {}", i + 1));
            }
            data.push(x);
        }
        if data.len() - before != ncols {
            return Err(format!(
                "{what}: line {} has {} values, want {ncols}",
                i + 1,
                data.len() - before
            ));
        }
        rows += 1;
    }
    if rows != nrows {
        return Err(format!("{what}: {rows} rows, want {nrows}"));
    }
    Ok(Mat::from_vec(nrows, ncols, data))
}

/// Reloads `lambda.txt` and `factor_<d>.txt` from `dir`, checking shapes
/// against `dims` and `rank` and that every value is finite.
pub fn load_model(dir: &Path, dims: &[usize], rank: usize) -> Result<CpModel, String> {
    let read =
        |name: &str| std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"));
    let lambda = parse_matrix(&read("lambda.txt")?, rank, 1, "lambda.txt")?.into_vec();
    let factors = dims
        .iter()
        .enumerate()
        .map(|(d, &n)| {
            let name = format!("factor_{d}.txt");
            parse_matrix(&read(&name)?, n, rank, &name)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CpModel { lambda, factors })
}

/// Checks the factors a run wrote under `dir` and returns their fit to
/// `tensor` divided by `ref_fit`, which must be within `tol` of 1.
pub fn check_output(
    dir: &Path,
    tensor: &SparseTensor,
    rank: usize,
    ref_fit: f64,
    tol: f64,
) -> Result<f64, String> {
    let model = load_model(dir, tensor.dims(), rank)?;
    let ratio = model.fit_to(tensor) / ref_fit;
    if !ratio.is_finite() || (ratio - 1.0).abs() > tol {
        return Err(format!("fit is {ratio} times the reference {ref_fit}, outside 1 +- {tol}"));
    }
    Ok(ratio)
}

/// Checks that `CheckpointStore::load_latest` opens the newest generation
/// in `dir` without falling back, and that it holds the final iteration.
pub fn check_checkpoint(dir: &Path, iters: usize) -> Result<(), String> {
    let newest = std::fs::read_dir(dir)
        .map_err(|e| format!("checkpoint dir: {e}"))?
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_prefix("ckpt-")?.strip_suffix(".adtmc")?.parse::<u64>().ok()
        })
        .max()
        .ok_or("no checkpoint generation was written")?;
    let got = CheckpointStore::load_latest(dir).map_err(|e| format!("load_latest: {e}"))?;
    if got.generation != newest || !got.fallbacks.is_empty() {
        return Err(format!(
            "load_latest opened generation {} ({} fallbacks), newest is {newest}",
            got.generation,
            got.fallbacks.len()
        ));
    }
    if got.checkpoint.next_iter != iters {
        return Err(format!(
            "newest checkpoint resumes at {}, want {iters}",
            got.checkpoint.next_iter
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reloads_a_written_factor_matrix() {
        let m = parse_matrix("1 2.5\n-3e-2 4\n", 2, 2, "f").unwrap();
        assert_eq!(m.as_slice(), &[1.0, 2.5, -0.03, 4.0]);
        // The CLI prints factors with `{}`, which round-trips exactly.
        let x = 0.1f64 + 0.2;
        assert_eq!(parse_matrix(&format!("{x}\n"), 1, 1, "f").unwrap().get(0, 0), x);
    }

    #[test]
    fn rejects_bad_shapes_and_values() {
        assert!(parse_matrix("1 2\n3\n", 2, 2, "f").is_err(), "short row");
        assert!(parse_matrix("1 2\n", 2, 2, "f").is_err(), "missing row");
        assert!(parse_matrix("1 2\n3 4\n5 6\n", 2, 2, "f").is_err(), "extra row");
        assert!(parse_matrix("1 NaN\n3 4\n", 2, 2, "f").is_err(), "NaN");
        assert!(parse_matrix("1 inf\n3 4\n", 2, 2, "f").is_err(), "inf");
        assert!(parse_matrix("1 x\n3 4\n", 2, 2, "f").is_err(), "junk");
    }
}
