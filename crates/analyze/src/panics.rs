//! Panic-freedom lint for kernel crates.
//!
//! Crates marked `kernel = true` in their `analyze.toml` (tensor, dtree,
//! linalg) surface failures as typed errors; a stray `unwrap` turns a
//! reportable condition into an anonymous abort deep inside a rayon
//! region. Denied in non-test code: `.unwrap()`, `.expect(...)`, and the
//! `panic!`/`unreachable!`/`todo!`/`unimplemented!` macros. Deliberate
//! contract aborts (the audit module's invariant failures) are carried
//! by `[allow.panic]` entries with their justification.
//!
//! `assert!`-family macros are *not* denied: the kernels use them for
//! cheap preconditions whose failure is a caller bug, and
//! `debug_assert!` vanishes in release builds.

use crate::{apply_allowances, CrateModel, Finding, LintOutcome};

/// Method calls that panic on the error/none path.
const PANICKY_METHODS: &[&str] = &["unwrap", "expect"];

/// Macros that unconditionally panic when reached.
const PANICKY_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// The panic-freedom lint (no-op unless `config.kernel`).
pub fn panic_lint(model: &CrateModel) -> LintOutcome {
    if !model.config.kernel {
        return LintOutcome::default();
    }
    let raw = raw_panics(model);
    apply_allowances("panic", raw, &model.config.allow_panic)
}

fn raw_panics(model: &CrateModel) -> Vec<(String, Finding)> {
    let mut raw = Vec::new();
    for f in &model.fns {
        if f.item.is_test {
            continue;
        }
        for call in &f.facts.calls {
            if call.method && PANICKY_METHODS.contains(&call.last()) {
                raw.push((
                    f.allow_key(),
                    Finding {
                        lint: "panic",
                        file: f.file.clone(),
                        line: call.line,
                        message: format!(
                            "`.{}(...)` in kernel fn `{}` — return a typed error, or add \
                             an `[allow.panic]` entry justifying the abort",
                            call.last(),
                            f.item.name
                        ),
                    },
                ));
            }
        }
        for m in &f.facts.macros {
            if PANICKY_MACROS.contains(&m.name()) {
                raw.push((
                    f.allow_key(),
                    Finding {
                        lint: "panic",
                        file: f.file.clone(),
                        line: m.line,
                        message: format!(
                            "`{}!` in kernel fn `{}` — return a typed error, or add an \
                             `[allow.panic]` entry justifying the abort",
                            m.name(),
                            f.item.name
                        ),
                    },
                ));
            }
        }
    }
    raw
}

/// Raw (pre-allowance) counts per function for `--bless`.
pub fn raw_counts(model: &CrateModel) -> Vec<(String, usize)> {
    if !model.config.kernel {
        return Vec::new();
    }
    let mut counts = std::collections::BTreeMap::new();
    for (key, _) in raw_panics(model) {
        *counts.entry(key).or_insert(0usize) += 1;
    }
    counts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_model;
    use crate::config::CrateConfig;

    fn kernel_model(src: &str, extra_cfg: &str) -> CrateModel {
        let cfg = CrateConfig::parse(&format!("kernel = true\n{extra_cfg}")).unwrap();
        build_model("kern", cfg, &[("k.rs".to_string(), src.to_string())])
    }

    #[test]
    fn unwrap_and_expect_are_flagged() {
        let src = "
            fn f(x: Option<u32>) -> u32 { x.unwrap() }
            fn g(x: Option<u32>) -> u32 { x.expect(\"present\") }
        ";
        let out = panic_lint(&kernel_model(src, ""));
        assert_eq!(out.findings.len(), 2);
        let f = out.findings.iter().find(|f| f.line == 2).expect("unwrap finding on line 2");
        assert!(f.message.contains("unwrap"), "{}", f.message);
    }

    #[test]
    fn unwrap_or_else_and_strings_are_fine() {
        let src = "
            fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }
            fn g() -> &'static str { \"calls .unwrap() in text\" }
            // .expect( in a comment
            fn h() {}
        ";
        assert!(panic_lint(&kernel_model(src, "")).findings.is_empty());
    }

    #[test]
    fn panic_macro_is_flagged_but_allowance_covers_it() {
        let src = "fn audit_fail() { panic!(\"invariant broken\"); }";
        let out = panic_lint(&kernel_model(src, ""));
        assert_eq!(out.findings.len(), 1);
        let out = panic_lint(&kernel_model(
            src,
            "[allow.panic]\n\"k.rs::audit_fail\" = { sites = 1, reason = \"contract abort\" }\n",
        ));
        assert!(out.findings.is_empty());
    }

    #[test]
    fn non_kernel_crate_is_exempt() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let m = build_model(
            "notkern",
            CrateConfig::default(),
            &[("lib.rs".to_string(), src.to_string())],
        );
        assert!(panic_lint(&m).findings.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(panic_lint(&kernel_model(src, "")).findings.is_empty());
    }
}
