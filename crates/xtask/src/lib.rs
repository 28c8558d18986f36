//! The lint ratchet behind `cargo run -p xtask -- ratchet`.
//!
//! Every rule of the workspace's source-level contract — panic freedom,
//! seeding discipline, audited `unsafe` — is enforced by clippy, rustc or
//! a type (ARCHITECTURE "Static analysis"), and CI's clippy step fails on
//! any finding. A site the contract sanctions carries
//! `#[expect(clippy::…, reason = "…")]` instead, and clippy is silent
//! there. The ratchet counts those sites as well: it re-runs clippy with
//! `--force-warn` for each lint it tracks, which reports findings an
//! `expect` suppresses, and compares the per-lint totals with the
//! committed [`baseline::BASELINE_FILE`]. A rise fails; a fall tightens
//! the file, or fails too under `--check`.
//!
//! The same file holds each crate's non-test line count ([`loc_counts`]),
//! so a change that grows a crate shows the growth in its diff.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// A float ordering cannot `unwrap`/`expect` a `partial_cmp` here: the
// non-test build bans both outright (use `f64::total_cmp`).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use mesh_topology::json::{self, Value};

/// Prefix of the per-crate line-count keys: `loc::<package>`.
pub const LOC_PREFIX: &str = "loc::";

/// One clippy run: which targets it checks and which lints it counts.
pub struct Pass {
    /// Cargo's target selection.
    pub targets: &'static [&'static str],
    /// The lints forced to warn, and counted.
    pub lints: &'static [&'static str],
    /// Count only findings in the library crates' own files: not under
    /// `vendor/`, `crates/bench/` or `crates/xtask/`.
    pub library_only: bool,
}

/// The ratchet's clippy runs.
pub const PASSES: [Pass; 2] = [
    // Panic freedom and seeding discipline, in the shipped build of the
    // library crates: the scope their crate roots enable these lints in.
    Pass {
        targets: &["--lib", "--bins"],
        lints: &[
            "clippy::disallowed_methods",
            "clippy::expect_used",
            "clippy::indexing_slicing",
            "clippy::panic",
            "clippy::todo",
            "clippy::unimplemented",
            "clippy::unreachable",
            "clippy::unwrap_used",
        ],
        library_only: true,
    },
    // Every `unsafe` site anywhere: tests and vendored crates included.
    Pass {
        targets: &["--all-targets"],
        lints: &["unsafe_code"],
        library_only: false,
    },
];

/// The cargo arguments of `pass`.
pub fn clippy_args(pass: &Pass) -> Vec<&'static str> {
    let mut args = vec!["clippy", "--workspace", "--quiet", "--message-format=json"];
    args.extend(pass.targets);
    args.push("--");
    for lint in pass.lints {
        args.extend(["--force-warn", lint]);
    }
    args
}

/// Per-lint finding counts of `pass` in cargo's JSON output, every lint
/// of the pass present. A finding counts once per (lint, file, line,
/// column): `--all-targets` checks a library twice, as lib and as test
/// harness, and a macro expanded twice reports its sites twice.
pub fn count(pass: &Pass, cargo_json: &str) -> BTreeMap<String, usize> {
    let mut sites = BTreeSet::new();
    for line in cargo_json.lines() {
        if let Some(site) = site(pass, line) {
            sites.insert(site);
        }
    }
    let mut counts: BTreeMap<String, usize> =
        pass.lints.iter().map(|l| (l.to_string(), 0)).collect();
    for (lint, ..) in sites {
        *counts.entry(lint).or_default() += 1;
    }
    counts
}

/// The (lint, file, line, column) of one counted finding.
fn site(pass: &Pass, line: &str) -> Option<(String, String, u64, u64)> {
    let msg = json::parse(line).ok()?;
    if msg.get("reason")?.as_str()? != "compiler-message" {
        return None;
    }
    let diag = msg.get("message")?;
    let lint = diag.get("code")?.get("code")?.as_str()?;
    if !pass.lints.contains(&lint) {
        return None;
    }
    let span = diag
        .get("spans")?
        .as_arr()?
        .iter()
        .find(|s| s.get("is_primary") == Some(&Value::Bool(true)))?;
    let file = span.get("file_name")?.as_str()?;
    let library = (file.starts_with("crates/") || file.starts_with("src/"))
        && !file.starts_with("crates/bench/")
        && !file.starts_with("crates/xtask/");
    if pass.library_only && !library {
        return None;
    }
    let at = |key| span.get(key)?.as_f64().map(|v| v as u64);
    Some((
        lint.to_string(),
        file.to_string(),
        at("line_start")?,
        at("column_start")?,
    ))
}

/// Non-blank lines of one source file before its first `#[cfg(test)]`.
pub fn non_test_lines(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .filter(|l| !l.is_empty())
        .count()
}

/// `loc::<package>` → [`non_test_lines`] summed over `src/**/*.rs`, for
/// every crate directory under `<root>/crates`.
pub fn loc_counts(root: &Path) -> Result<BTreeMap<String, usize>, String> {
    let mut counts = BTreeMap::new();
    for dir in entries(&root.join("crates"))? {
        let manifest = dir.join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue; // not a crate
        };
        let name = text
            .split("[package]")
            .nth(1)
            .and_then(|package| {
                package
                    .lines()
                    .find_map(|l| l.trim().strip_prefix("name = "))
            })
            .ok_or_else(|| format!("{}: no package name", manifest.display()))?;
        let key = format!("{LOC_PREFIX}{}", name.trim_matches('"'));
        counts.insert(key, source_lines(&dir.join("src"))?);
    }
    Ok(counts)
}

/// [`non_test_lines`] summed over the `.rs` files under `dir`.
fn source_lines(dir: &Path) -> Result<usize, String> {
    let mut lines = 0;
    for path in entries(dir)? {
        if path.is_dir() {
            lines += source_lines(&path)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            lines += non_test_lines(&text);
        }
    }
    Ok(lines)
}

/// The paths in `dir`.
fn entries(dir: &Path) -> Result<Vec<std::path::PathBuf>, String> {
    let read = |e: std::io::Error| format!("cannot read {}: {e}", dir.display());
    fs::read_dir(dir)
        .map_err(read)?
        .map(|entry| entry.map(|e| e.path()).map_err(read))
        .collect()
}
