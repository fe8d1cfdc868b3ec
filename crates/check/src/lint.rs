//! Workspace invariant lint: a hand-rolled source scanner (no `syn`,
//! no rustc internals) enforcing cross-cutting rules the compiler
//! cannot see. Run as `gmm lint`; CI fails on any finding.
//!
//! Rules:
//!
//! * **panic-free-request-path** — no `.unwrap()`, `.expect(` or
//!   `panic!(` outside `#[cfg(test)]` modules in the service's request
//!   path (`server.rs`, `protocol.rs`). A malformed frame or corrupt
//!   cache entry must produce a structured error response, never tear
//!   down the connection thread. `unreachable!` is deliberately not
//!   flagged: it documents statically impossible states.
//! * **verb-round-trip** — every wire verb named in `protocol.rs` has
//!   a `fn <verb>_round_trip…` test in its test module, so a new verb
//!   cannot ship without serialization coverage.
//! * **options-defaults** — every public `#[non_exhaustive]` struct
//!   named `*Options` has a `Default` and docs that state its
//!   defaults; non-exhaustive structs are only usable via
//!   `Default`-then-assign, so undocumented defaults are unusable
//!   defaults.
//! * **one-codec** — outside `crates/compat/`, no `impl Serialize` or
//!   `impl Deserialize` defines `to_value` or `from_value`. A type
//!   writes `write_json` and `read_json` only; the trait serves the
//!   `Value` tree through that text, so a second, tree-walking codec
//!   could only drift from it.
//!
//! Exceptions live in `lint.allow` at the workspace root, one per
//! line: `rule:file-suffix:substring` (a finding is suppressed when
//! the rule matches, the file path ends with the suffix, and the
//! offending source line contains the substring). `#` starts a
//! comment.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based; 0 when the finding concerns a whole file/region.
    pub line: usize,
    pub message: String,
    /// Source text of the offending line (empty for region findings);
    /// allowlist substrings match against this.
    pub source: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        } else {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        }
    }
}

/// Outcome of one lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    /// Findings suppressed by `lint.allow` entries.
    pub allowed: usize,
    pub files_scanned: usize,
}

impl LintReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Walk up from `start` to the enclosing workspace root (the directory
/// whose `Cargo.toml` declares `[workspace]`).
pub fn find_repo_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// One `rule:file-suffix:substring` allowlist entry.
#[derive(Debug)]
struct Allow {
    rule: String,
    file_suffix: String,
    substring: String,
}

impl Allow {
    fn matches(&self, finding: &Finding) -> bool {
        finding.rule == self.rule
            && finding.file.ends_with(&self.file_suffix)
            && (self.substring.is_empty() || finding.source.contains(&self.substring))
    }
}

/// Parse `lint.allow` text; malformed lines are themselves findings so
/// a typo cannot silently allow everything.
fn parse_allowlist(text: &str, findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, ':');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(suffix), Some(substring))
                if !rule.is_empty() && !suffix.is_empty() =>
            {
                allows.push(Allow {
                    rule: rule.to_string(),
                    file_suffix: suffix.to_string(),
                    substring: substring.to_string(),
                });
            }
            _ => findings.push(Finding {
                rule: "allowlist",
                file: "lint.allow".to_string(),
                line: i + 1,
                message: format!("malformed entry (want rule:file-suffix:substring): {line}"),
                source: raw.to_string(),
            }),
        }
    }
    allows
}

/// Strip `//` comments (including doc comments). Deliberately naive
/// about `//` inside string literals: request-path code does not embed
/// flagged tokens after URL-bearing strings, and a rare false negative
/// beats a parser dependency.
fn code_of(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Per-line mask: true for lines inside a `#[cfg(test)]` item (brace
/// counted from the item's opening brace).
fn test_mask(lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            let mut depth = 0usize;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                mask[j] = true;
                for ch in code_of(lines[j]).chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth = depth.saturating_sub(1),
                        _ => {}
                    }
                }
                if opened && depth == 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Rule `panic-free-request-path`.
fn check_request_path(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    let mask = test_mask(&lines);
    for (i, line) in lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let code = code_of(line);
        for token in [".unwrap()", ".expect(", "panic!("] {
            if code.contains(token) {
                findings.push(Finding {
                    rule: "panic-free-request-path",
                    file: rel.to_string(),
                    line: i + 1,
                    message: format!(
                        "`{token}` on a request path; return a structured protocol error instead"
                    ),
                    source: (*line).to_string(),
                });
            }
        }
    }
}

/// Rule `verb-round-trip`.
fn check_verbs(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    let mask = test_mask(&lines);
    let test_region: String = lines
        .iter()
        .enumerate()
        .filter(|(i, _)| mask[*i])
        .map(|(_, l)| *l)
        .collect::<Vec<_>>()
        .join("\n");
    let mut verbs: Vec<(usize, String)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if mask[i] || !line.contains("\"verb\"") {
            continue;
        }
        let code = code_of(line);
        // Verbs are written as `.token("verb", "<verb>")` members.
        const PATTERN: &str = "token(\"verb\", \"";
        if let Some(pos) = code.find(PATTERN) {
            let rest = &code[pos + PATTERN.len()..];
            if let Some(end) = rest.find('"') {
                let verb = rest[..end].to_string();
                if !verb.is_empty() && !verbs.iter().any(|(_, v)| *v == verb) {
                    verbs.push((i + 1, verb));
                }
            }
        }
    }
    if verbs.is_empty() {
        findings.push(Finding {
            rule: "verb-round-trip",
            file: rel.to_string(),
            line: 0,
            message: "no wire verbs found; the extraction pattern no longer matches".to_string(),
            source: String::new(),
        });
        return;
    }
    for (line, verb) in verbs {
        let wanted = format!("fn {verb}_round_trip");
        if !test_region.contains(&wanted) {
            findings.push(Finding {
                rule: "verb-round-trip",
                file: rel.to_string(),
                line,
                message: format!("verb \"{verb}\" has no `{wanted}…` test"),
                source: format!("\"{verb}\""),
            });
        }
    }
}

/// Rule `options-defaults`, applied to one source file.
fn check_options_defaults(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if !line.trim_start().starts_with("#[non_exhaustive]") {
            continue;
        }
        // The decorated item: the next `pub struct` within the
        // attribute cluster (attrs/derives may sit between).
        let mut name = None;
        let mut struct_line = i;
        for (j, candidate) in lines.iter().enumerate().skip(i + 1).take(4) {
            let trimmed = candidate.trim_start();
            if let Some(rest) = trimmed.strip_prefix("pub struct ") {
                let ident: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                name = Some(ident);
                struct_line = j;
                break;
            }
        }
        let Some(name) = name else { continue };
        if !name.ends_with("Options") {
            continue;
        }
        // Default: a derive in the attribute cluster or a manual impl.
        let cluster_start = i.saturating_sub(4);
        let has_derived_default = lines[cluster_start..=struct_line]
            .iter()
            .any(|l| l.contains("derive") && l.contains("Default"));
        let has_manual_default = text.contains(&format!("impl Default for {name}"));
        if !has_derived_default && !has_manual_default {
            findings.push(Finding {
                rule: "options-defaults",
                file: rel.to_string(),
                line: struct_line + 1,
                message: format!(
                    "non-exhaustive {name} has no Default; it cannot be constructed downstream"
                ),
                source: lines[struct_line].to_string(),
            });
        }
        // Docs: the contiguous `///` block above the attributes must
        // mention the defaults.
        let mut k = i;
        while k > 0
            && (lines[k - 1].trim_start().starts_with("///")
                || lines[k - 1].trim_start().starts_with("#["))
        {
            k -= 1;
        }
        let docs: String = lines[k..i]
            .iter()
            .filter(|l| l.trim_start().starts_with("///"))
            .map(|l| l.to_lowercase())
            .collect();
        if !docs.contains("default") {
            findings.push(Finding {
                rule: "options-defaults",
                file: rel.to_string(),
                line: struct_line + 1,
                message: format!("non-exhaustive {name} does not document its defaults"),
                source: lines[struct_line].to_string(),
            });
        }
    }
}

/// Rule `one-codec`, applied to one source file: flag `fn to_value` and
/// `fn from_value` inside the braces of an `impl … Serialize for` or
/// `impl … Deserialize for` block.
fn check_one_codec(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let mut depth = 0usize;
    // The depth outside the codec impl being scanned, and whether its
    // opening brace has been seen yet.
    let mut codec_impl: Option<(usize, bool)> = None;
    for (i, line) in text.lines().enumerate() {
        let code = code_of(line);
        if codec_impl.is_none()
            && code.trim_start().starts_with("impl")
            && (code.contains("Serialize for ") || code.contains("Deserialize for "))
        {
            codec_impl = Some((depth, false));
        }
        if codec_impl.is_some() {
            for method in ["fn to_value", "fn from_value"] {
                if code.contains(method) {
                    findings.push(Finding {
                        rule: "one-codec",
                        file: rel.to_string(),
                        line: i + 1,
                        message: format!(
                            "`{method}` in a codec impl; write `write_json`/`read_json` only, \
                             the trait serves the tree through the text"
                        ),
                        source: line.to_string(),
                    });
                }
            }
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if let Some((_, opened)) = &mut codec_impl {
                        *opened = true;
                    }
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if matches!(codec_impl, Some((outer, true)) if depth <= outer) {
            codec_impl = None;
        }
    }
}

/// Recursively collect `.rs` files under `dir` (skipping `target/`).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// Run every rule against the workspace at `root`.
pub fn run(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut findings = Vec::new();

    let allow_text = fs::read_to_string(root.join("lint.allow")).unwrap_or_default();
    let allows = parse_allowlist(&allow_text, &mut findings);

    for rel in [
        "crates/service/src/server.rs",
        "crates/service/src/protocol.rs",
    ] {
        let text = fs::read_to_string(root.join(rel))?;
        check_request_path(rel, &text, &mut findings);
        report.files_scanned += 1;
    }

    let protocol = fs::read_to_string(root.join("crates/service/src/protocol.rs"))?;
    check_verbs("crates/service/src/protocol.rs", &protocol, &mut findings);

    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        let dir = root.join(dir);
        if dir.is_dir() {
            rust_files(&dir, &mut files)?;
        }
    }
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(path)?;
        check_options_defaults(&rel, &text, &mut findings);
        if !rel.starts_with("crates/compat/") {
            check_one_codec(&rel, &text, &mut findings);
        }
        report.files_scanned += 1;
    }

    for finding in findings {
        if allows.iter().any(|a| a.matches(&finding)) {
            report.allowed += 1;
        } else {
            report.findings.push(finding);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap() }\n}\nfn c() {}\n";
        let lines: Vec<&str> = src.lines().collect();
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn request_path_flags_only_nontest_tokens() {
        let src = "fn handle() { x.unwrap(); y.expect(\"no\"); unreachable!(\"ok\") }\n\
                   #[cfg(test)]\nmod tests { fn t() { z.unwrap() } }\n";
        let mut findings = Vec::new();
        check_request_path("f.rs", src, &mut findings);
        let rules: Vec<_> = findings.iter().map(|f| f.message.clone()).collect();
        assert_eq!(findings.len(), 2, "{rules:?}");
    }

    #[test]
    fn allowlist_suppresses_by_rule_suffix_and_substring() {
        let mut parse_errors = Vec::new();
        let allows = parse_allowlist(
            "# comment\n\npanic-free-request-path:server.rs:canonical JSON\nbad-line\n",
            &mut parse_errors,
        );
        assert_eq!(allows.len(), 1);
        assert_eq!(parse_errors.len(), 1, "malformed line must be a finding");
        let hit = Finding {
            rule: "panic-free-request-path",
            file: "crates/service/src/server.rs".to_string(),
            line: 1,
            message: String::new(),
            source: ".expect(\"cache stores canonical JSON\")".to_string(),
        };
        let miss = Finding {
            source: ".unwrap()".to_string(),
            ..hit.clone()
        };
        assert!(allows[0].matches(&hit));
        assert!(!allows[0].matches(&miss));
    }

    #[test]
    fn options_defaults_requires_default_and_docs() {
        let good = "/// Defaults: all zero.\n#[derive(Debug, Default)]\n#[non_exhaustive]\npub struct FooOptions { pub a: u32 }\n";
        let mut findings = Vec::new();
        check_options_defaults("f.rs", good, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");

        let bad = "/// Knobs.\n#[non_exhaustive]\npub struct BarOptions { pub a: u32 }\n";
        check_options_defaults("f.rs", bad, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}"); // no Default, no documented defaults
    }

    #[test]
    fn one_codec_flags_tree_methods_in_codec_impls() {
        let good = [
            "impl Serialize for A {",
            "    fn write_json(&self, out: &mut JsonWriter) {}",
            "}",
            "impl A {",
            "    fn to_value(&self) -> Value { todo!() }",
            "}",
        ];
        let mut findings = Vec::new();
        check_one_codec("f.rs", &good.join("\n"), &mut findings);
        assert!(findings.is_empty(), "{findings:?}");

        let bad = [
            "impl serde::Serialize for A {",
            "    fn to_value(&self) -> Value { todo!() }",
            "}",
            "impl<T> ::serde::Deserialize for B<T>",
            "where",
            "    T: Clone,",
            "{",
            "    fn from_value(v: &Value) -> R { todo!() }",
            "}",
            "fn from_value() {}",
        ];
        check_one_codec("f.rs", &bad.join("\n"), &mut findings);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 8], "{findings:?}");
    }

    #[test]
    fn workspace_lint_is_clean() {
        let root = find_repo_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let report = run(&root).expect("lint run");
        assert!(
            report.clean(),
            "workspace lint found violations:\n{}",
            report
                .findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
