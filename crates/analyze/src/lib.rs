//! Structural static analysis for the adatm workspace.
//!
//! `cargo xtask analyze` drives four passes over the workspace sources:
//!
//! 1. **Hot-path allocation lint** ([`hot`]): no allocation machinery
//!    (`Vec::new`, `collect`, `clone`, `format!`, ...) in functions
//!    tagged `#[adatm::hot]` or listed in a crate's `analyze.toml`,
//!    propagated transitively through same-crate callees.
//! 2. **Panic-freedom lint** ([`panics`]): no `unwrap`/`expect`/`panic!`
//!    in kernel crates, plus unchecked slice indexing in hot-path code
//!    ([`hot::index_lint`]) — both hard-deny, backed by explicit
//!    per-function allowances with burn-down accounting.
//! 3. **Trace-schema conformance** ([`schema_lint`]): every `event!` /
//!    `span_guard!` call site is checked against the declared registry
//!    in `adatm_trace::schema` — same registry the runtime
//!    `xtask trace-check` validator uses.
//! 4. **Schedule-disjointness prover** ([`prover`]): an exhaustive
//!    small-universe model check that `ModeSchedule` and
//!    `ScatterSchedule` only ever produce disjoint parallel writes.
//!
//! The build environment is offline, so there is no `syn`; passes 1–3
//! run on an in-tree lexer ([`lexer`]) and token-tree item extractor
//! ([`tree`]) — an AST-lite that gives reliable token boundaries and
//! delimiter structure (a `.unwrap()` in a comment or string can never
//! fire), not full expression grammar. The known parsing limits are
//! listed in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod discover;
pub mod hot;
pub mod lexer;
pub mod panics;
pub mod prover;
pub mod schema_lint;
pub mod tree;

use config::{Allowance, CrateConfig};
use std::collections::BTreeMap;
use tree::{body_facts, parse_file, BodyFacts, FnItem};

/// One lint finding (a hard failure for `cargo xtask analyze`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which pass produced it (`alloc`, `panic`, `index`, `schema`,
    /// `parse`, `prover`).
    pub lint: &'static str,
    /// File, as named when the sources were loaded.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}:{}: {}", self.lint, self.file, self.line, self.message)
    }
}

/// One analyzed function with its precomputed body facts.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// File the function lives in (as named when loaded).
    pub file: String,
    /// The parsed item.
    pub item: FnItem,
    /// Calls/macros/indexing extracted from the body (empty for
    /// body-less trait declarations).
    pub facts: BodyFacts,
    /// Whether the file carries the `// lint: hot-path` marker.
    pub hot_file: bool,
}

impl FnInfo {
    /// The allowance key for this function: `"file.rs::fn_name"`, with
    /// the file reduced to its base name so keys survive layout moves.
    pub fn allow_key(&self) -> String {
        let base = self.file.rsplit('/').next().unwrap_or(&self.file);
        format!("{base}::{}", self.item.name)
    }
}

/// A whole crate, parsed and ready for the lint passes.
#[derive(Clone, Debug)]
pub struct CrateModel {
    /// Crate name (`adatm-tensor`).
    pub name: String,
    /// Parsed `analyze.toml` (default when absent).
    pub config: CrateConfig,
    /// Every function in the crate.
    pub fns: Vec<FnInfo>,
    /// Parse/lex problems, reported as findings of the `parse` lint.
    pub parse_findings: Vec<Finding>,
}

/// Whether the file opts into the hot-path indexing lint (same
/// `// lint: hot-path` marker the old advisory scan used).
pub fn is_hot_path_tagged(src: &str) -> bool {
    src.lines().take(10).any(|l| l.contains("lint: hot-path"))
}

/// Parses `(file name, source)` pairs into a [`CrateModel`].
pub fn build_model(name: &str, config: CrateConfig, files: &[(String, String)]) -> CrateModel {
    let mut fns = Vec::new();
    let mut parse_findings = Vec::new();
    for (file, src) in files {
        let hot_file = is_hot_path_tagged(src);
        let items = parse_file(src);
        for e in &items.errors {
            parse_findings.push(Finding {
                lint: "parse",
                file: file.clone(),
                line: e.line,
                message: e.message.clone(),
            });
        }
        for item in items.fns {
            let facts = match &item.body {
                Some(body) => body_facts(body),
                None => BodyFacts::default(),
            };
            fns.push(FnInfo { file: file.clone(), item, facts, hot_file });
        }
    }
    CrateModel { name: name.to_string(), config, fns, parse_findings }
}

/// Result of one lint pass after allowances are applied.
#[derive(Clone, Debug, Default)]
pub struct LintOutcome {
    /// Hard failures.
    pub findings: Vec<Finding>,
    /// Advisories (stale allowances, skipped dynamic sites).
    pub warnings: Vec<String>,
}

impl LintOutcome {
    /// Merges another outcome into this one.
    pub fn merge(&mut self, other: LintOutcome) {
        self.findings.extend(other.findings);
        self.warnings.extend(other.warnings);
    }
}

/// Applies a per-function allowance map to raw findings.
///
/// Findings are grouped by function key; a key with an allowance of `N`
/// sites suppresses up to `N` findings. More than `N` fails with an
/// aggregate finding (so a regression names the function, not `N`
/// spelling-identical lines); fewer than `N` emits a stale-allowance
/// warning so burn-down progress shrinks the allowlist.
pub fn apply_allowances(
    lint: &'static str,
    raw: Vec<(String, Finding)>,
    allow: &BTreeMap<String, Allowance>,
) -> LintOutcome {
    let mut by_key: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for (key, finding) in raw {
        by_key.entry(key).or_default().push(finding);
    }
    let mut out = LintOutcome::default();
    for (key, findings) in &by_key {
        match allow.get(key) {
            Some(a) if findings.len() <= a.sites => {
                if findings.len() < a.sites {
                    out.warnings.push(format!(
                        "[{lint}] stale allowance `{key}`: allows {} sites, found {} — \
                         shrink it",
                        a.sites,
                        findings.len()
                    ));
                }
            }
            Some(a) => {
                let f0 = &findings[0];
                out.findings.push(Finding {
                    lint,
                    file: f0.file.clone(),
                    line: f0.line,
                    message: format!(
                        "`{key}` has {} {lint} sites but its allowance covers {} \
                         (reason: {}) — fix the new sites or re-justify the allowance",
                        findings.len(),
                        a.sites,
                        a.reason
                    ),
                });
            }
            None => out.findings.extend(findings.iter().cloned()),
        }
    }
    // Allowances that match nothing at all are dead config.
    for key in allow.keys() {
        if !by_key.contains_key(key) {
            out.warnings
                .push(format!("[{lint}] unused allowance `{key}`: no findings — remove it"));
        }
    }
    out
}

/// Counts raw findings per allowance key (the `--bless` path).
pub fn count_by_key(raw: &[(String, Finding)]) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for (key, _) in raw {
        *counts.entry(key.clone()).or_insert(0usize) += 1;
    }
    counts
}

/// Checks that a crate root source declares `#![forbid(unsafe_code)]`
/// (kept from the old scanner: the workspace-level deny must not be
/// overridable locally).
pub fn check_forbid_unsafe(file: &str, src: &str) -> Option<Finding> {
    let found = src.lines().any(|l| {
        let t = l.trim();
        t == "#![forbid(unsafe_code)]" || t.starts_with("#![forbid(unsafe_code)]")
    });
    if found {
        None
    } else {
        Some(Finding {
            lint: "unsafe",
            file: file.to_string(),
            line: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        })
    }
}

/// Runs every static pass over one crate model (everything except the
/// prover, which is workspace-global).
pub fn analyze_crate(model: &CrateModel) -> LintOutcome {
    let mut out = LintOutcome::default();
    out.findings.extend(model.parse_findings.iter().cloned());
    out.merge(hot::alloc_lint(model));
    out.merge(hot::index_lint(model));
    out.merge(panics::panic_lint(model));
    out.merge(schema_lint::schema_lint(model));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: u32) -> Finding {
        Finding { lint: "index", file: file.into(), line, message: "m".into() }
    }

    #[test]
    fn allowance_suppresses_exact_count() {
        let mut allow = BTreeMap::new();
        allow.insert("f.rs::g".to_string(), Allowance { sites: 2, reason: "ok".into() });
        let raw = vec![
            ("f.rs::g".to_string(), finding("f.rs", 1)),
            ("f.rs::g".to_string(), finding("f.rs", 2)),
        ];
        let out = apply_allowances("index", raw, &allow);
        assert!(out.findings.is_empty());
        assert!(out.warnings.is_empty());
    }

    #[test]
    fn allowance_overflow_fails_and_names_the_fn() {
        let mut allow = BTreeMap::new();
        allow.insert("f.rs::g".to_string(), Allowance { sites: 1, reason: "ok".into() });
        let raw = vec![
            ("f.rs::g".to_string(), finding("f.rs", 1)),
            ("f.rs::g".to_string(), finding("f.rs", 2)),
        ];
        let out = apply_allowances("index", raw, &allow);
        assert_eq!(out.findings.len(), 1);
        assert!(out.findings[0].message.contains("f.rs::g"));
    }

    #[test]
    fn stale_and_unused_allowances_warn() {
        let mut allow = BTreeMap::new();
        allow.insert("f.rs::g".to_string(), Allowance { sites: 3, reason: "ok".into() });
        allow.insert("f.rs::gone".to_string(), Allowance { sites: 1, reason: "ok".into() });
        let raw = vec![("f.rs::g".to_string(), finding("f.rs", 1))];
        let out = apply_allowances("index", raw, &allow);
        assert!(out.findings.is_empty());
        assert_eq!(out.warnings.len(), 2);
        assert!(out.warnings.iter().any(|w| w.contains("stale")));
        assert!(out.warnings.iter().any(|w| w.contains("unused")));
    }

    #[test]
    fn unallowed_findings_pass_through() {
        let raw = vec![("f.rs::g".to_string(), finding("f.rs", 9))];
        let out = apply_allowances("index", raw, &BTreeMap::new());
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].line, 9);
    }

    #[test]
    fn forbid_unsafe_check_matches_old_scanner() {
        let f = check_forbid_unsafe("lib.rs", "//! A crate.\npub fn f() {}").expect("flagged");
        assert!(f.message.contains("forbid(unsafe_code)"), "{}", f.message);
        assert!(check_forbid_unsafe("lib.rs", "pub fn f() {}").is_some());
        assert!(check_forbid_unsafe("lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}").is_none());
        let doc_first = "//! A crate.\n#![forbid(unsafe_code)]\npub fn f() {}";
        assert!(check_forbid_unsafe("lib.rs", doc_first).is_none());
    }
}
