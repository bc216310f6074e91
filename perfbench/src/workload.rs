//! The three workloads, their seeded inputs and the reference fit.
//!
//! Each workload separates a different set of layers (see README.md for
//! why each exists). Every workload decomposes at rank 16 for a fixed
//! number of iterations (`--tol 0`) on the default adaptive backend.

use adatm_core::{CheckpointConfig, CooBackend, CpAls, CpAlsOptions, PpConfig};
use adatm_tensor::gen::{proxy_datasets, zipf_tensor, DatasetSpec};
use adatm_tensor::io::{read_tns_file, write_tns_file};
use adatm_tensor::SparseTensor;
use std::fs;
use std::path::{Path, PathBuf};

pub const RANK: usize = 16;

/// Seeds whose generated inputs stay cached per workload; older ones are
/// deleted so a long series of seeds does not fill the disk.
const CACHED_SEEDS: usize = 3;

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub dims: Vec<usize>,
    pub nnz: usize,
    pub skews: Vec<f64>,
    pub iters: usize,
    /// `--pp-tol` and `--pp-every`, when pairwise perturbation is on.
    pub pp: Option<(f64, usize)>,
    /// `--checkpoint-every`, when checkpointing is on.
    pub checkpoint_every: Option<usize>,
    /// Set-up-only runs after the warm-up and after each measured run,
    /// so that `setup_s` samples the host at more moments where the
    /// set-up phase is short (and its share of host noise large).
    /// `ingest-3d` needs none: its 1.5–1.9 s set-up spans the host's short
    /// swings, and a batch would cost a measured run.
    pub setup_probes: usize,
}

fn proxy(name: &str, scale: f64) -> DatasetSpec {
    proxy_datasets(scale).into_iter().find(|d| d.name == name).expect("proxy dataset exists")
}

pub fn workloads() -> Vec<Workload> {
    let amazon = proxy("amazon3d", 1.0);
    let deli = proxy("deli4d", 0.1);
    vec![
        Workload {
            name: "ingest-3d",
            dims: amazon.dims,
            nnz: amazon.nnz,
            skews: amazon.skews,
            iters: 2,
            pp: None,
            checkpoint_every: None,
            setup_probes: 0,
        },
        Workload {
            name: "als-6d",
            dims: vec![2000, 3000, 4000, 5000, 6000, 1000],
            nnz: 400_000,
            skews: vec![0.8, 0.7, 0.9, 0.6, 0.8, 0.5],
            iters: 10,
            pp: None,
            checkpoint_every: None,
            setup_probes: 3,
        },
        Workload {
            name: "durable-4d",
            dims: deli.dims,
            nnz: deli.nnz,
            skews: deli.skews,
            iters: 30,
            pp: Some((0.05, 8)),
            checkpoint_every: Some(5),
            setup_probes: 10,
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// Input files of one run: the `.tns` the program reads, its factor
/// output directory and its checkpoint directory.
pub struct Files {
    pub tns: PathBuf,
    pub out: PathBuf,
    pub ckpt: PathBuf,
}

impl Workload {
    /// `adatm decompose` arguments.
    pub fn cli_args(&self, f: &Files) -> Vec<String> {
        let mut a: Vec<String> = vec!["decompose".into(), f.tns.display().to_string()];
        let mut flag = |k: &str, v: String| a.extend([format!("--{k}"), v]);
        flag("rank", RANK.to_string());
        flag("iters", self.iters.to_string());
        flag("tol", "0".into());
        flag("out", f.out.display().to_string());
        if let Some((tol, every)) = self.pp {
            flag("pp-tol", tol.to_string());
            flag("pp-every", every.to_string());
        }
        if let Some(n) = self.checkpoint_every {
            flag("checkpoint-dir", f.ckpt.display().to_string());
            flag("checkpoint-every", n.to_string());
        }
        a
    }

    /// `adatm decompose` arguments that stop after the set-up phase
    /// (read, dedup, plan, structure build): `--iters 0`, no output. The
    /// PP and checkpoint flags only act after the `backend:` line.
    pub fn setup_args(&self, f: &Files) -> Vec<String> {
        let mut a: Vec<String> = vec!["decompose".into(), f.tns.display().to_string()];
        a.extend(["--rank".into(), RANK.to_string(), "--iters".into(), "0".into()]);
        a
    }

    /// The options `adatm decompose` builds from [`Workload::cli_args`]
    /// (its defaults: seed 0, drift factor 2), with `checkpoint` in place
    /// of the one built from `--checkpoint-dir`.
    pub fn options(&self, checkpoint: Option<CheckpointConfig>) -> CpAlsOptions {
        let mut o = self.plain_options().drift_factor(2.0);
        if let Some((tol, every)) = self.pp {
            o = o.pp(PpConfig::new().tol(tol).every(every));
        }
        if let Some(c) = checkpoint {
            o = o.checkpoint(c);
        }
        o
    }

    /// The run without pairwise perturbation or checkpoints.
    fn plain_options(&self) -> CpAlsOptions {
        CpAlsOptions::new(RANK).max_iters(self.iters).tol(0.0).seed(0)
    }
}

/// A workload's seeded input, as the program will see it.
pub struct Input {
    pub tns: PathBuf,
    /// The `.tns` file read back and deduplicated, as the CLI loads it.
    pub tensor: SparseTensor,
    /// Fit of the simplest kernel path on this input (see
    /// [`reference_fit`]).
    pub ref_fit: f64,
}

/// Generates (or reuses) the workload's `.tns` for `seed` under `dir`,
/// loads it, and computes its reference fit with the code under test.
/// All of this is outside every timing.
pub fn prepare(w: &Workload, seed: u64, dir: &Path) -> Result<Input, String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let tns = dir.join(format!("{}-{seed}.tns", w.name));
    if !tns.exists() {
        let t = zipf_tensor(&w.dims, w.nnz, &w.skews, seed);
        let tmp = dir.join(format!("{}-{seed}.tmp", w.name));
        write_tns_file(&t, &tmp).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, &tns).map_err(|e| format!("rename {}: {e}", tmp.display()))?;
    }
    let mut tensor = read_tns_file(&tns).map_err(|e| format!("read {}: {e}", tns.display()))?;
    tensor.dedup_sum();
    let ref_fit = reference_fit(w, &tensor)?;
    prune(dir, w.name, &tns);
    Ok(Input { tns, tensor, ref_fit })
}

/// The fit CP-ALS reaches on `tensor` with the plain COO kernel and no
/// pairwise perturbation or checkpointing: the simplest kernel path,
/// against which every measured run's written factors are checked.
fn reference_fit(w: &Workload, tensor: &SparseTensor) -> Result<f64, String> {
    let mut backend = CooBackend::new(tensor);
    let res = CpAls::new(w.plain_options())
        .run(tensor, &mut backend)
        .map_err(|e| format!("reference run failed: {e}"))?;
    Ok(res.model.fit_to(tensor))
}

/// Keeps the newest [`CACHED_SEEDS`] inputs of workload `name` (always
/// including `keep`), deleting older ones.
fn prune(dir: &Path, name: &str, keep: &Path) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let prefix = format!("{name}-");
    let mut tns: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p != keep
                && p.extension().is_some_and(|x| x == "tns")
                && p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(&prefix))
        })
        .filter_map(|p| Some((fs::metadata(&p).ok()?.modified().ok()?, p)))
        .collect();
    tns.sort_by_key(|(modified, _)| std::cmp::Reverse(*modified));
    for (_, p) in tns.into_iter().skip(CACHED_SEEDS - 1) {
        let _ = fs::remove_file(p);
    }
}
