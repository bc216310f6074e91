//! `BENCHMARK.json` reader and the result-line writer.
//!
//! `BENCHMARK.json` at the repository root is the single list of
//! workloads and metrics. The benchmark reads it on every run and
//! reports exactly the metrics it names, with the units it gives, so the
//! file and the code cannot drift apart silently.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let arr = doc.get(key).and_then(Json::as_arr).ok_or(format!("'{key}' must be a list"))?;
    arr.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("every '{key}' entry needs a string '{f}'"))
            };
            Ok(MetricSpec { name: field("name")?, unit: field("unit")? })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .filter(|s| *s >= 1.0 && s.fract() == 0.0)
            .ok_or("'run_seconds' must be a whole number >= 1")? as u64;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("'workloads' must be a list")?
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("every workload needs a string 'name'")?;
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Pairs every metric the spec lists with its measured value. A listed
/// metric that was not measured, a measured one the spec does not list,
/// and a non-finite value are all errors: they mean the code and
/// `BENCHMARK.json` disagree.
pub fn select<'a>(
    listed: &'a [MetricSpec],
    measured: &BTreeMap<String, f64>,
) -> Result<Vec<(&'a MetricSpec, f64)>, String> {
    if let Some(extra) = measured.keys().find(|k| !listed.iter().any(|m| &m.name == *k)) {
        return Err(format!("metric '{extra}' is measured but not listed in BENCHMARK.json"));
    }
    listed
        .iter()
        .map(|m| match measured.get(&m.name) {
            Some(v) if v.is_finite() => Ok((m, *v)),
            Some(v) => Err(format!("metric '{}' is not finite ({v})", m.name)),
            None => Err(format!("metric '{}' is listed but was not measured", m.name)),
        })
        .collect()
}

/// The final stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": v, "unit": u}`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&MetricSpec, f64)],
) -> String {
    let metrics = metrics.iter().map(|(m, v)| {
        (m.name.clone(), Json::obj([("value", Json::Num(*v)), ("unit", Json::str(&m.unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"command": ["x"], "paths": ["p"], "run_seconds": 20,
        "workloads": [{"name": "a", "why": "w"}, {"name": "b", "why": "w"}],
        "end_to_end": [{"name": "total_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "x.calls", "unit": "count", "better": "lower"}]}"#;

    fn spec() -> Spec {
        Spec::parse(SAMPLE).expect("sample spec parses")
    }

    #[test]
    fn reads_workloads_and_metrics() {
        let s = spec();
        assert_eq!(s.run_seconds, 20);
        assert_eq!(s.workloads, ["a", "b"]);
        assert_eq!(s.end_to_end, [MetricSpec { name: "total_s".into(), unit: "s".into() }]);
        assert_eq!(s.per_layer[0].unit, "count");
        assert!(Spec::parse(&SAMPLE.replace("20", "2.5")).is_err());
        assert!(Spec::parse(&SAMPLE.replace("\"unit\": \"s\", ", "")).is_err());
    }

    #[test]
    fn result_line_reads_back_with_exactly_the_contract_keys() {
        let s = spec();
        let measured = BTreeMap::from([("total_s".to_string(), 1.234_567_891_2)]);
        let line = result_line(true, 7, 1, &select(&s.end_to_end, &measured).unwrap());
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &doc else { panic!("result is an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(7.0));
        let m = doc.get("metrics").and_then(|m| m.get("total_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.234_567_891_2));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn select_rejects_missing_extra_and_non_finite_metrics() {
        let s = spec();
        assert!(select(&s.end_to_end, &BTreeMap::new()).is_err());
        let extra = BTreeMap::from([("total_s".to_string(), 1.0), ("other".to_string(), 2.0)]);
        assert!(select(&s.end_to_end, &extra).is_err());
        let nan = BTreeMap::from([("total_s".to_string(), f64::NAN)]);
        assert!(select(&s.end_to_end, &nan).is_err());
    }

    #[test]
    fn committed_benchmark_json_names_the_coded_workloads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let s = Spec::load(&path).expect("BENCHMARK.json parses");
        let coded: Vec<String> =
            crate::workload::workloads().iter().map(|w| w.name.to_string()).collect();
        assert_eq!(s.workloads, coded);
        assert!(s.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
