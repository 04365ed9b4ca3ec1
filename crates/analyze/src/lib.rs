//! `ld-analyze` — the repo-invariant lint pass behind `ldx analyze`.
//!
//! This workspace's claims rest on invariants a compiler never checks:
//! reports must be byte-deterministic (so no iteration over randomly
//! ordered maps on any output path), reruns must be reproducible (so no
//! wall-clock reads outside perf modules), and the library crates promise
//! panic-isolation (so no `unwrap` on library paths).  This crate encodes
//! those invariants as five token-level rules, D001–D005, documented in
//! `docs/ANALYZE_RULES.md`:
//!
//! | rule | invariant |
//! |------|-----------|
//! | D001 | no bare `std::collections::HashMap`/`HashSet` in library code |
//! | D002 | no `std::time::Instant`/`SystemTime` in library code without a pragma |
//! | D003 | every crate root forbids `unsafe_code`, lints `missing_docs`, has `//!` docs |
//! | D004 | no `.unwrap()`/`.expect()` in runner/local library non-test code |
//! | D005 | every `pub enum …Error` has a `Display` impl in its file |
//!
//! Sites that violate a rule deliberately carry an inline pragma with an
//! auditable justification:
//!
//! ```text
//! // ld-analyze: allow(D002, reason = "wall time is reporting-only here")
//! use std::time::Instant;
//! ```
//!
//! The scanner is a hand-rolled lexer (no syn, no registry deps — the
//! build is offline), which understands comments, strings, raw strings,
//! char-vs-lifetime and raw identifiers, so rules never fire on prose.
//! `ldx analyze` walks the workspace, prints findings, and exits nonzero
//! under `--deny-all` when any unsuppressed finding remains — CI runs
//! exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lexer;
mod rules;

pub use rules::{analyze_source, Finding, Rule, Suppressed};

use std::path::{Path, PathBuf};

/// The result of analyzing a file set.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unsuppressed violations, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Pragma-suppressed findings with their justifications, same order.
    pub suppressed: Vec<Suppressed>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// True when no unsuppressed finding remains.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// A deterministic JSON document for machine consumption (schema
    /// `ld-analyze/report/v1`): findings and suppressions sorted, no
    /// timestamps, no absolute paths.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"ld-analyze/report/v1\",\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
                f.rule.id(),
                escape_json(&f.file),
                f.line,
                escape_json(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"suppressed\": [\n");
        for (i, s) in self.suppressed.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}{}\n",
                s.rule.id(),
                escape_json(&s.file),
                s.line,
                escape_json(&s.reason),
                if i + 1 < self.suppressed.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Analyzes every `.rs` file under `root` (the workspace root), skipping
/// build output and VCS metadata.  Paths in the result are
/// workspace-relative with `/` separators, so reports are stable across
/// machines.
///
/// # Errors
///
/// Returns a message when the walk or a file read fails; individual
/// findings never error.
pub fn analyze_root(root: &Path) -> Result<Analysis, String> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut analysis = Analysis::default();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("read {}: {e}", rel.display()))?;
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let (findings, suppressed) = analyze_source(&rel_str, &source);
        analysis.findings.extend(findings);
        analysis.suppressed.extend(suppressed);
        analysis.files_scanned += 1;
    }
    analysis
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    analysis
        .suppressed
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(analysis)
}

/// Directories that are never part of the source tree.
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | ".git" | "node_modules") || name.starts_with('.')
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    // Sort for a deterministic walk regardless of filesystem order.
    let mut entries: Vec<_> = entries
        .collect::<Result<_, _>>()
        .map_err(|e| format!("walk {}: {e}", dir.display()))?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let file_type = entry
            .file_type()
            .map_err(|e| format!("stat {}: {e}", path.display()))?;
        if file_type.is_dir() {
            if !skip_dir(&name) {
                collect_rs_files(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("relativize {}: {e}", path.display()))?;
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed_and_escaped() {
        let analysis = Analysis {
            findings: vec![Finding {
                rule: Rule::D001,
                file: "crates/x/src/a.rs".to_string(),
                line: 3,
                message: "say \"hi\"\nand more".to_string(),
            }],
            suppressed: vec![Suppressed {
                rule: Rule::D004,
                file: "crates/y/src/b.rs".to_string(),
                line: 9,
                reason: "checked above".to_string(),
            }],
            files_scanned: 2,
        };
        let json = analysis.to_json();
        assert!(json.contains("\"ld-analyze/report/v1\""));
        assert!(json.contains("\\\"hi\\\"\\nand more"));
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(json.contains("\"reason\": \"checked above\""));
    }

    #[test]
    fn clean_analysis_reports_clean() {
        assert!(Analysis::default().is_clean());
        let dirty = Analysis {
            findings: vec![Finding {
                rule: Rule::D002,
                file: "f".to_string(),
                line: 1,
                message: String::new(),
            }],
            ..Default::default()
        };
        assert!(!dirty.is_clean());
    }
}
