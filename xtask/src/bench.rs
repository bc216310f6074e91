//! Snapshot parsing and comparison for `cargo xtask bench`.
//!
//! The bench driver (`crates/bench/src/bin/bench_kernels.rs`) writes a
//! flat, hand-serialized `BENCH_<date>.json`; this module reads it back
//! with an equally small line-oriented parser (the workspace is offline,
//! so no serde) and diffs two snapshots with a configurable tolerance.
//! Pure functions over strings, unit-tested without touching the
//! filesystem — same philosophy as [`crate::trace`].

/// One measurement row from a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchRecord {
    /// Identity: `kernel/backend/tensor/threads`.
    pub key: String,
    /// Best-of-reps wall time per call.
    pub ns_per_call: u64,
}

/// Extracts a `"name": "value"` string field from a JSON line.
fn field_str<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

/// Extracts a `"name": 123` numeric field from a JSON line.
fn field_u64(line: &str, name: &str) -> Option<u64> {
    let tag = format!("\"{name}\": ");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Parses every record row of a snapshot. Unparseable lines are skipped
/// (a snapshot from a newer schema should degrade, not abort the lint).
pub fn parse_records(json: &str) -> Vec<BenchRecord> {
    json.lines()
        .filter_map(|line| {
            let kernel = field_str(line, "kernel")?;
            let backend = field_str(line, "backend")?;
            let tensor = field_str(line, "tensor")?;
            let threads = field_u64(line, "threads")?;
            let ns = field_u64(line, "ns_per_call")?;
            Some(BenchRecord {
                key: format!("{kernel}/{backend}/{tensor}/t{threads}"),
                ns_per_call: ns,
            })
        })
        .collect()
}

/// Whether a snapshot was taken in smoke mode (tiny sizes — never
/// comparable against a full run).
pub fn parse_smoke(json: &str) -> bool {
    json.lines().any(|l| l.contains("\"smoke\": true"))
}

/// A collision-free default snapshot name for `date`: `BENCH_<date>.json`
/// when free, otherwise `BENCH_<date>.2.json`, `.3.json`, ... — a second
/// run on the same day must not silently overwrite the morning's
/// baseline (the regression diff would then compare the run to itself).
pub fn snapshot_name(date: &str, taken: &[String]) -> String {
    let plain = format!("BENCH_{date}.json");
    if !taken.contains(&plain) {
        return plain;
    }
    for n in 2.. {
        let candidate = format!("BENCH_{date}.{n}.json");
        if !taken.contains(&candidate) {
            return candidate;
        }
    }
    unreachable!("the counter loop always finds a free name")
}

/// The most recently *written* snapshot among `(name, mtime_seconds)`
/// pairs — by modification time, not filename sort: suffixed same-day
/// names (`BENCH_d.2.json`) sort lexicographically *before* `BENCH_d.json`,
/// so a name sort would diff against the wrong baseline. Ties break to
/// the lexicographically larger name for determinism.
pub fn latest_by_mtime(entries: &[(String, u64)]) -> Option<String> {
    entries
        .iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
        .map(|(name, _)| name.clone())
}

/// Compares two snapshots: every key present in both must not have
/// slowed down by more than `tolerance_pct` percent. Returns one message
/// per regression (empty = pass).
pub fn compare(old: &[BenchRecord], new: &[BenchRecord], tolerance_pct: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    for n in new {
        let Some(o) = old.iter().find(|o| o.key == n.key) else { continue };
        if o.ns_per_call == 0 {
            continue;
        }
        let ratio = n.ns_per_call as f64 / o.ns_per_call as f64;
        if ratio > 1.0 + tolerance_pct / 100.0 {
            regressions.push(format!(
                "{}: {} ns -> {} ns ({:+.1}%, tolerance {:.0}%)",
                n.key,
                o.ns_per_call,
                n.ns_per_call,
                (ratio - 1.0) * 100.0,
                tolerance_pct
            ));
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAPSHOT: &str = r#"{
  "schema": 1,
  "date": "2026-08-07",
  "smoke": false,
  "threads": 8,
  "summary": { "pp_sweep_speedup": 2.310, "pp_fit_diff": 1.000e-6 },
  "records": [
    { "kernel": "mttkrp", "backend": "coo-sched-m0", "tensor": "deli4d", "threads": 8, "ns_per_call": 1000, "allocs_per_call": 34 },
    { "kernel": "alloc-gate", "backend": "coo-sched-seq", "tensor": "deli4d", "threads": 1, "ns_per_call": 900, "allocs_per_call": 0 }
  ]
}"#;

    #[test]
    fn parses_records_and_smoke_flag() {
        let recs = parse_records(SNAPSHOT);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].key, "mttkrp/coo-sched-m0/deli4d/t8");
        assert_eq!(recs[0].ns_per_call, 1000);
        assert!(!parse_smoke(SNAPSHOT));
    }

    #[test]
    fn smoke_flag_detected() {
        assert!(parse_smoke("{\n  \"smoke\": true,\n}"));
    }

    #[test]
    fn compare_flags_only_out_of_tolerance_keys() {
        let old = parse_records(SNAPSHOT);
        let new = vec![
            BenchRecord { key: "mttkrp/coo-sched-m0/deli4d/t8".into(), ns_per_call: 1100 },
            BenchRecord { key: "alloc-gate/coo-sched-seq/deli4d/t1".into(), ns_per_call: 2000 },
            BenchRecord { key: "brand/new/key/t8".into(), ns_per_call: 1 },
        ];
        // 10% slower passes at 25% tolerance; 122% slower fails; new keys
        // are never regressions.
        let msgs = compare(&old, &new, 25.0);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].starts_with("alloc-gate/coo-sched-seq"), "{}", msgs[0]);
    }

    #[test]
    fn compare_passes_when_faster() {
        let old = parse_records(SNAPSHOT);
        let new = vec![BenchRecord { key: "mttkrp/coo-sched-m0/deli4d/t8".into(), ns_per_call: 1 }];
        assert!(compare(&old, &new, 0.0).is_empty());
    }

    #[test]
    fn snapshot_name_avoids_same_day_collisions() {
        let none: Vec<String> = vec![];
        assert_eq!(snapshot_name("2026-08-07", &none), "BENCH_2026-08-07.json");
        let one = vec!["BENCH_2026-08-07.json".to_string()];
        assert_eq!(snapshot_name("2026-08-07", &one), "BENCH_2026-08-07.2.json");
        let two = vec!["BENCH_2026-08-07.json".to_string(), "BENCH_2026-08-07.2.json".to_string()];
        assert_eq!(snapshot_name("2026-08-07", &two), "BENCH_2026-08-07.3.json");
        // A different day never collides with today's files.
        assert_eq!(snapshot_name("2026-08-08", &two), "BENCH_2026-08-08.json");
    }

    #[test]
    fn latest_by_mtime_beats_filename_sort() {
        // The suffixed same-day rerun sorts lexicographically BEFORE the
        // plain name but was written later; mtime must win.
        let entries = vec![
            ("BENCH_2026-08-07.json".to_string(), 100),
            ("BENCH_2026-08-07.2.json".to_string(), 200),
        ];
        assert_eq!(latest_by_mtime(&entries).as_deref(), Some("BENCH_2026-08-07.2.json"));
        // Ties break to the larger name, deterministically.
        let tied = vec![("BENCH_a.json".to_string(), 5), ("BENCH_b.json".to_string(), 5)];
        assert_eq!(latest_by_mtime(&tied).as_deref(), Some("BENCH_b.json"));
        assert_eq!(latest_by_mtime(&[]), None);
    }
}
