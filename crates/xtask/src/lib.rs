//! Workspace static-analysis suite: the determinism, panic-freedom, and
//! unsafe-audit lints behind `cargo run -p xtask -- analyze`, plus the
//! CI lint ratchet behind `cargo run -p xtask -- ratchet`.
//!
//! Every result this repo produces rests on the claim that a run is a
//! pure function of `(topology, agent, seed, channel, traffic)`, and
//! that the packet path neither panics nor leaks pooled buffers. The
//! engine enforces pieces of that contract at runtime (golden files,
//! double-run byte equality, the alloc-budget harness); this crate
//! enforces the *source-level hygiene* those runtime checks depend on,
//! with a staged, hand-rolled analyzer (no crates.io here, mirroring how
//! `mesh_topology::json` hand-rolls JSON):
//!
//! 1. `lexer` blanks comments and string/char literals per line and
//!    marks `#[cfg(test)]` regions;
//! 2. `tokens` turns the blanked lines into a real token stream;
//! 3. `parser` recovers a lightweight item model — fn bodies, impl
//!    blocks, const items, attribute spans — so the expression-aware
//!    lints reason about scopes, not lines.
//!
//! Rules clippy can check from configuration live there instead: the
//! root `clippy.toml` disallows `HashMap`/`HashSet` and
//! `Instant::now`/`SystemTime::now` in every crate, and `scenario` and
//! `mesh-sim` deny `clippy::return_self_not_must_use`.
//!
//! ## Lint families
//!
//! **Determinism** (line-based) —
//! * [`Lint::RngStream`]: RNG construction not derived from the run seed
//!   (`seed_from_u64` and `seed_eight_from_u64` must take the bare seed or
//!   `seed ^ *_STREAM`).
//! * [`Lint::FloatOrd`]: float ordering via `partial_cmp` + unwrap-style
//!   methods instead of `total_cmp`.
//!
//! **Panic freedom & resource pairing** (expression-aware) —
//! * [`Lint::PanicPath`]: `unwrap`/`expect`, panicking macros, and
//!   direct indexing in non-test library-crate code.
//! * [`Lint::StreamRegistry`]: every `*_STREAM` constant must live in
//!   the one module marked `// xtask: stream-registry`, be
//!   workspace-unique in both name and value, and every reference must
//!   resolve to a registered constant.
//! * [`Lint::PoolPairing`]: every `pool::acquire`/`acquire_vec` site
//!   needs a reachable `pool::release*` in an impl of the same type (or
//!   the same free fn) in the same file.
//!
//! **Unsafe audit** —
//! * [`Lint::UndocumentedUnsafe`]: every `unsafe` needs a `// SAFETY:`
//!   comment; all sites are inventoried.
//! * [`Lint::MissingForbid`]: every crate root except `crates/gf256`
//!   must carry `#![forbid(unsafe_code)]`.
//!
//! **Escape-hatch accounting** — a finding is suppressed by
//!
//! ```text
//! // xtask: allow(<lint>) -- <justification>          (this line + the next)
//! // xtask: allow(<lint>, file) -- <justification>    (whole file)
//! ```
//!
//! (`allow(missing_forbid)` may sit anywhere in the crate root). Every
//! entry — used or not — is printed in the report, a malformed one is
//! itself a finding ([`Lint::BadAllow`]), and every *suppressed* finding
//! still counts toward the [`baseline`] ratchet: `analyze` can be green
//! while `ratchet` fails on escape-hatch creep.
//!
//! Test code (paths under `tests/`/`benches/`/`examples/`, and
//! `#[cfg(test)]` regions) is exempt from the determinism and
//! panic-path lints: tests may pin literal seeds and unwrap freely. The
//! unsafe audit applies everywhere, vendored crates under `vendor/`
//! included; every other lint skips them.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod baseline;
mod lexer;
mod lints;
mod parser;
mod tokens;

use lexer::FileView;
use parser::ParsedFile;

// ---------------------------------------------------------------------
// Public model.
// ---------------------------------------------------------------------

/// The lint families, in report order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Lint {
    /// RNG construction not derived from the run seed.
    RngStream,
    /// Float ordering via `partial_cmp` + unwrap-style methods.
    FloatOrd,
    /// Panicking calls/macros/indexing in library code.
    PanicPath,
    /// `*_STREAM` constants outside (or missing from) the registry.
    StreamRegistry,
    /// `pool::acquire*` without a reachable `pool::release*` path.
    PoolPairing,
    /// `unsafe` without a `// SAFETY:` comment.
    UndocumentedUnsafe,
    /// Crate root lacking `#![forbid(unsafe_code)]`.
    MissingForbid,
    /// Malformed `// xtask: allow(..)` comment.
    BadAllow,
}

impl Lint {
    /// Every lint, in report order.
    pub const ALL: [Lint; 8] = [
        Lint::RngStream,
        Lint::FloatOrd,
        Lint::PanicPath,
        Lint::StreamRegistry,
        Lint::PoolPairing,
        Lint::UndocumentedUnsafe,
        Lint::MissingForbid,
        Lint::BadAllow,
    ];

    /// The lint's snake_case name, as used in allow comments, reports,
    /// and the ratchet baseline.
    pub fn name(self) -> &'static str {
        match self {
            Lint::RngStream => "rng_stream",
            Lint::FloatOrd => "float_ord",
            Lint::PanicPath => "panic_path",
            Lint::StreamRegistry => "stream_registry",
            Lint::PoolPairing => "pool_pairing",
            Lint::UndocumentedUnsafe => "undocumented_unsafe",
            Lint::MissingForbid => "missing_forbid",
            Lint::BadAllow => "bad_allow",
        }
    }

    /// Resolves an allow-comment lint name. `bad_allow` is deliberately
    /// absent: a malformed escape hatch cannot be escaped.
    pub fn from_name(name: &str) -> Option<Lint> {
        Lint::ALL
            .into_iter()
            .find(|l| *l != Lint::BadAllow && l.name() == name)
    }
}

/// One lint violation.
#[derive(Debug)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Why this is a contract violation and what to do instead.
    pub message: String,
}

/// How far a `// xtask: allow(..)` comment reaches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllowScope {
    /// The comment's own line and the line below it.
    Line,
    /// The whole file (`allow(<lint>, file)`).
    File,
}

/// One parsed `// xtask: allow(<lint>[, file]) -- <justification>`.
#[derive(Debug)]
pub struct AllowEntry {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the comment.
    pub line: usize,
    /// The lint being suppressed.
    pub lint: Lint,
    /// Line-scoped or file-scoped.
    pub scope: AllowScope,
    /// The text after `--`.
    pub justification: String,
    /// Whether the entry suppressed at least one finding.
    pub used: bool,
}

/// One `unsafe` occurrence, documented or not.
#[derive(Debug)]
pub struct UnsafeSite {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// `block`, `fn`, `impl`, or `trait`.
    pub kind: &'static str,
    /// The `SAFETY:` text, when present.
    pub safety: Option<String>,
}

/// Everything one `analyze` run produced.
#[derive(Default)]
pub struct Report {
    /// Unsuppressed violations, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// Every allow entry seen, with its usage accounted.
    pub allows: Vec<AllowEntry>,
    /// The full unsafe inventory (documented sites included).
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Findings suppressed by allows, counted per lint.
    pub suppressed: BTreeMap<Lint, usize>,
    /// Registered stream constants: name → (file, line).
    pub stream_registry: BTreeMap<String, (String, usize)>,
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
}

impl Report {
    /// No unsuppressed findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The unsuppressed findings of one lint.
    pub fn of(&self, lint: Lint) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.lint == lint).collect()
    }

    /// The ratchet counts: per-lint totals *including* findings
    /// suppressed by allows, plus the unsafe inventory size and the
    /// number of unused allow entries. A clean `analyze` can therefore
    /// still regress the ratchet by adding escape hatches.
    pub fn counts(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for lint in Lint::ALL {
            let visible = self.findings.iter().filter(|f| f.lint == lint).count();
            let hidden = self.suppressed.get(&lint).copied().unwrap_or(0);
            out.insert(lint.name().to_string(), visible + hidden);
        }
        out.insert("unsafe_sites".to_string(), self.unsafe_sites.len());
        out.insert(
            "unused_allows".to_string(),
            self.allows.iter().filter(|a| !a.used).count(),
        );
        out
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "xtask analyze: {} file(s) scanned, {} finding(s)",
            self.files_scanned,
            self.findings.len()
        );
        for f in &self.findings {
            let _ = writeln!(
                out,
                "  {}:{}  [{}] {}",
                f.file,
                f.line,
                f.lint.name(),
                f.message
            );
        }
        let _ = writeln!(out, "allowlist entries: {}", self.allows.len());
        for a in &self.allows {
            let scope = match a.scope {
                AllowScope::Line => "",
                AllowScope::File => ", file",
            };
            let state = if a.used { "used" } else { "UNUSED" };
            let _ = writeln!(
                out,
                "  {}:{}  allow({}{}) {} -- {}",
                a.file,
                a.line,
                a.lint.name(),
                scope,
                state,
                a.justification
            );
        }
        let suppressed_total: usize = self.suppressed.values().sum();
        if suppressed_total > 0 {
            let pairs: Vec<String> = self
                .suppressed
                .iter()
                .filter(|(_, n)| **n > 0)
                .map(|(l, n)| format!("{}={n}", l.name()))
                .collect();
            let _ = writeln!(
                out,
                "suppressed by allows: {} ({})",
                suppressed_total,
                pairs.join(", ")
            );
        }
        let _ = writeln!(
            out,
            "stream registry: {} constant(s)",
            self.stream_registry.len()
        );
        let documented = self
            .unsafe_sites
            .iter()
            .filter(|s| s.safety.is_some())
            .count();
        let _ = writeln!(
            out,
            "unsafe inventory: {} site(s), {} documented",
            self.unsafe_sites.len(),
            documented
        );
        for s in &self.unsafe_sites {
            let safety = s.safety.as_deref().unwrap_or("<undocumented>");
            let _ = writeln!(
                out,
                "  {}:{}  unsafe {}  SAFETY: {}",
                s.file, s.line, s.kind, safety
            );
        }
        out
    }

    /// Machine-readable report for tooling.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 == self.findings.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{comma}",
                f.lint.name(),
                json_escape(&f.file),
                f.line,
                json_escape(&f.message)
            );
        }
        out.push_str("  ],\n  \"allows\": [\n");
        for (i, a) in self.allows.iter().enumerate() {
            let comma = if i + 1 == self.allows.len() { "" } else { "," };
            let scope = match a.scope {
                AllowScope::Line => "line",
                AllowScope::File => "file",
            };
            let _ = writeln!(
                out,
                "    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"scope\": \"{scope}\", \"used\": {}, \"justification\": \"{}\"}}{comma}",
                a.lint.name(),
                json_escape(&a.file),
                a.line,
                a.used,
                json_escape(&a.justification)
            );
        }
        out.push_str("  ],\n  \"counts\": {\n");
        let counts = self.counts();
        let last = counts.len().saturating_sub(1);
        for (i, (key, n)) in counts.iter().enumerate() {
            let comma = if i == last { "" } else { "," };
            let _ = writeln!(out, "    \"{key}\": {n}{comma}");
        }
        out.push_str("  }\n}\n");
        out
    }

    /// GitHub Actions workflow annotations: one `::error` per finding,
    /// one `::warning` per unused allow.
    pub fn render_github(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "::error file={},line={},title=xtask {}::{}",
                f.file,
                f.line,
                f.lint.name(),
                f.message
            );
        }
        for a in self.allows.iter().filter(|a| !a.used) {
            let _ = writeln!(
                out,
                "::warning file={},line={},title=xtask unused allow::allow({}) suppresses nothing; remove it",
                a.file,
                a.line,
                a.lint.name()
            );
        }
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Workspace context (phase 2 of analyze_root).
// ---------------------------------------------------------------------

/// Comment marker that designates the canonical stream-registry module.
const REGISTRY_MARKER: &str = "xtask: stream-registry";

/// Cross-file facts the expression lints consult.
pub(crate) struct Ctx {
    /// Files carrying the registry marker (at most one is legitimate).
    pub registry_files: Vec<String>,
    /// Registered stream constants: name → (file, line, value tokens).
    pub streams: BTreeMap<String, (String, usize, String)>,
}

struct FileEntry {
    rel: String,
    view: FileView,
    parsed: ParsedFile,
}

fn build_ctx(entries: &[FileEntry]) -> (Ctx, Vec<Finding>) {
    let mut findings = Vec::new();

    let mut registry_files = Vec::new();
    for e in entries {
        // The marker must be the whole line comment (mentions in doc
        // comments and strings don't count).
        if e.view
            .comment
            .iter()
            .any(|c| c.as_deref().is_some_and(|c| c.trim() == REGISTRY_MARKER))
        {
            registry_files.push(e.rel.clone());
        }
    }
    registry_files.sort();
    for extra in registry_files.iter().skip(1) {
        findings.push(Finding {
            lint: Lint::StreamRegistry,
            file: extra.clone(),
            line: 1,
            message: format!(
                "second `// {REGISTRY_MARKER}` marker (canonical module is `{}`); \
                 the workspace allows exactly one registry",
                registry_files[0]
            ),
        });
    }

    // Every *_STREAM const in the workspace, for uniqueness checks; the
    // registered subset is those inside registry files.
    let mut streams: BTreeMap<String, (String, usize, String)> = BTreeMap::new();
    let mut seen: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for e in entries {
        for c in &e.parsed.consts {
            if !c.name.ends_with("_STREAM") || c.name.len() == "_STREAM".len() {
                continue;
            }
            if e.view.test.get(c.line - 1).copied().unwrap_or(false) {
                continue;
            }
            if let Some((first_file, first_line)) = seen.get(&c.name) {
                findings.push(Finding {
                    lint: Lint::StreamRegistry,
                    file: e.rel.clone(),
                    line: c.line,
                    message: format!(
                        "stream constant `{}` is already defined at \
                         {first_file}:{first_line}; stream names must be \
                         workspace-unique",
                        c.name
                    ),
                });
            } else {
                seen.insert(c.name.clone(), (e.rel.clone(), c.line));
            }
            if registry_files.contains(&e.rel) {
                streams.insert(c.name.clone(), (e.rel.clone(), c.line, c.value.clone()));
            }
        }
    }

    // Registered stream *values* must be unique too: two streams with
    // the same XOR constant would collapse into one RNG sequence.
    let mut by_value: BTreeMap<&str, &str> = BTreeMap::new();
    for (name, (file, line, value)) in &streams {
        if value.is_empty() {
            continue;
        }
        if let Some(other) = by_value.get(value.as_str()) {
            findings.push(Finding {
                lint: Lint::StreamRegistry,
                file: file.clone(),
                line: *line,
                message: format!(
                    "stream constant `{name}` has the same value as `{other}`; \
                     identical streams collapse into one RNG sequence"
                ),
            });
        } else {
            by_value.insert(value, name);
        }
    }

    (
        Ctx {
            registry_files,
            streams,
        },
        findings,
    )
}

// ---------------------------------------------------------------------
// Allow parsing and resolution.
// ---------------------------------------------------------------------

const ALLOW_MARKER: &str = "xtask: allow(";

fn parse_allows(file: &str, view: &FileView, findings: &mut Vec<Finding>) -> Vec<AllowEntry> {
    let mut allows = Vec::new();
    // The directive must be the whole line comment: `// xtask: allow(..)`.
    // Matching against the lexer's comment text (not the raw line) keeps
    // mentions inside strings and `///`/`//!` docs from parsing as allows.
    for (i, comment) in view.comment.iter().enumerate() {
        let Some(comment) = comment.as_deref().map(str::trim_start) else {
            continue;
        };
        if !comment.starts_with(ALLOW_MARKER) {
            continue;
        }
        let pos = 0;
        let line = i + 1;
        let bad = |message: String, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                lint: Lint::BadAllow,
                file: file.to_string(),
                line,
                message,
            });
        };
        let rest = &comment[pos + ALLOW_MARKER.len()..];
        let Some(close) = rest.find(')') else {
            bad("allow comment has no closing `)`".to_string(), findings);
            continue;
        };
        let spec = &rest[..close];
        let (name, scope) = match spec.split_once(',') {
            None => (spec.trim(), AllowScope::Line),
            Some((name, modifier)) if modifier.trim() == "file" => (name.trim(), AllowScope::File),
            Some((_, modifier)) => {
                bad(
                    format!(
                        "unknown allow modifier `{}`; the only modifier is `file`",
                        modifier.trim()
                    ),
                    findings,
                );
                continue;
            }
        };
        let Some(lint) = Lint::from_name(name) else {
            bad(format!("unknown lint `{name}` in allow comment"), findings);
            continue;
        };
        let after = rest[close + 1..].trim();
        let Some(justification) = after.strip_prefix("--").map(str::trim) else {
            bad(
                "allow comment lacks a `-- <justification>`".to_string(),
                findings,
            );
            continue;
        };
        if justification.is_empty() {
            bad("allow justification is empty".to_string(), findings);
            continue;
        }
        allows.push(AllowEntry {
            file: file.to_string(),
            line,
            lint,
            scope,
            justification: justification.to_string(),
            used: false,
        });
    }
    allows
}

/// Moves unsuppressed findings into the report, marks matching allows
/// used, and counts what the allows hid.
fn resolve(findings: Vec<Finding>, allows: &mut [AllowEntry], report: &mut Report) {
    for f in findings {
        if f.lint == Lint::BadAllow {
            report.findings.push(f);
            continue;
        }
        let matched = allows.iter_mut().find(|a| {
            a.lint == f.lint
                && match a.scope {
                    // An allow covers its own line and the line below it
                    // (comment-above style). `missing_forbid` anchors to
                    // line 1, so any allow of it in the file counts.
                    AllowScope::Line => {
                        a.line == f.line || a.line + 1 == f.line || f.lint == Lint::MissingForbid
                    }
                    AllowScope::File => true,
                }
        });
        match matched {
            Some(a) => {
                a.used = true;
                *report.suppressed.entry(f.lint).or_insert(0) += 1;
            }
            None => report.findings.push(f),
        }
    }
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

/// Analyzes every tracked `.rs` file under `root`; the `.rs` files under
/// `root/vendor` get the unsafe audit alone.
pub fn analyze_root(root: &Path) -> io::Result<Report> {
    let rel = |path: &Path| {
        path.strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/")
    };
    let mut files = Vec::new();
    collect_rs_files(&root.to_path_buf(), &mut files)?;
    files.sort();
    let mut vendored = Vec::new();
    let vendor = root.join("vendor");
    if vendor.is_dir() {
        collect_rs_files(&vendor, &mut vendored)?;
        vendored.sort();
    }

    let mut entries = Vec::with_capacity(files.len());
    for path in &files {
        let view = lexer::lex(&fs::read_to_string(path)?);
        let parsed = parser::parse(tokens::tokenize(&view));
        entries.push(FileEntry {
            rel: rel(path),
            view,
            parsed,
        });
    }

    let (ctx, ctx_findings) = build_ctx(&entries);

    let mut report = Report {
        files_scanned: entries.len() + vendored.len(),
        ..Report::default()
    };
    let mut leftover_ctx = ctx_findings;
    for e in &entries {
        let mut findings = Vec::new();
        lints::run_line_lints(&e.rel, &e.view, &mut findings);
        lints::run_forbid_lint(&e.rel, &e.view, &mut findings);
        lints::run_unsafe_audit(&e.rel, &e.view, &mut findings, &mut report);
        lints::run_expr_lints(&e.rel, &e.parsed, &e.view, &ctx, &mut findings);
        let (mine, rest): (Vec<Finding>, Vec<Finding>) =
            leftover_ctx.drain(..).partition(|f| f.file == e.rel);
        leftover_ctx = rest;
        findings.extend(mine);

        let mut allows = parse_allows(&e.rel, &e.view, &mut findings);
        resolve(findings, &mut allows, &mut report);
        report.allows.extend(allows);
    }
    report.findings.extend(leftover_ctx);
    for path in &vendored {
        let (rel, view) = (rel(path), lexer::lex(&fs::read_to_string(path)?));
        let mut findings = Vec::new();
        lints::run_unsafe_audit(&rel, &view, &mut findings, &mut report);
        let mut allows = parse_allows(&rel, &view, &mut findings);
        resolve(findings, &mut allows, &mut report);
        report.allows.extend(allows);
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    for (name, (file, line, _)) in &ctx.streams {
        report
            .stream_registry
            .insert(name.clone(), (file.clone(), *line));
    }
    Ok(report)
}

fn collect_rs_files(dir: &PathBuf, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Skip build output, VCS state, vendored crates, experiment
            // results, and the analyzer's own lint fixtures.
            if matches!(
                &*name,
                "target" | ".git" | "vendor" | "results" | "fixtures"
            ) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod test {
    use super::*;

    fn entry(rel: &str, src: &str) -> FileEntry {
        let view = lexer::lex(src);
        let parsed = parser::parse(tokens::tokenize(&view));
        FileEntry {
            rel: rel.to_string(),
            view,
            parsed,
        }
    }

    #[test]
    fn allow_scopes_parse() {
        let view = lexer::lex(
            "// xtask: allow(panic_path) -- bounds checked above\n\
             // xtask: allow(panic_path, file) -- GF(256) kernel, bounds by construction\n\
             // xtask: allow(panic_path, crate) -- nope\n\
             // xtask: allow(made_up) -- nope\n\
             // xtask: allow(panic_path)\n",
        );
        let mut findings = Vec::new();
        let allows = parse_allows("crates/rlnc/src/x.rs", &view, &mut findings);
        assert_eq!(allows.len(), 2);
        assert_eq!(allows[0].scope, AllowScope::Line);
        assert_eq!(allows[1].scope, AllowScope::File);
        assert_eq!(findings.len(), 3);
        assert!(findings.iter().all(|f| f.lint == Lint::BadAllow));
    }

    #[test]
    fn file_scope_allow_suppresses_everywhere_and_counts() {
        let mut report = Report::default();
        let findings = vec![
            Finding {
                lint: Lint::PanicPath,
                file: "f.rs".into(),
                line: 10,
                message: String::new(),
            },
            Finding {
                lint: Lint::PanicPath,
                file: "f.rs".into(),
                line: 90,
                message: String::new(),
            },
        ];
        let mut allows = vec![AllowEntry {
            file: "f.rs".into(),
            line: 1,
            lint: Lint::PanicPath,
            scope: AllowScope::File,
            justification: "kernel".into(),
            used: false,
        }];
        resolve(findings, &mut allows, &mut report);
        assert!(report.is_clean());
        assert!(allows[0].used);
        assert_eq!(report.suppressed.get(&Lint::PanicPath), Some(&2));
        assert_eq!(report.counts()["panic_path"], 2);
    }

    #[test]
    fn line_scope_allow_reaches_one_line_down_only() {
        let mut report = Report::default();
        let findings = vec![Finding {
            lint: Lint::PanicPath,
            file: "f.rs".into(),
            line: 12,
            message: String::new(),
        }];
        let mut allows = vec![AllowEntry {
            file: "f.rs".into(),
            line: 10,
            lint: Lint::PanicPath,
            scope: AllowScope::Line,
            justification: "x".into(),
            used: false,
        }];
        resolve(findings, &mut allows, &mut report);
        assert_eq!(report.findings.len(), 1);
        assert!(!allows[0].used);
    }

    #[test]
    fn ctx_flags_duplicate_stream_names_and_values() {
        let entries = vec![
            entry(
                "crates/mesh-topology/src/streams.rs",
                "// xtask: stream-registry\n\
                 pub const A_STREAM: u64 = 1;\n\
                 pub const B_STREAM: u64 = 1;\n",
            ),
            entry(
                "crates/mesh-sim/src/channel.rs",
                "pub const A_STREAM: u64 = 2;\n",
            ),
        ];
        let (ctx, findings) = build_ctx(&entries);
        assert_eq!(ctx.registry_files, ["crates/mesh-topology/src/streams.rs"]);
        assert_eq!(ctx.streams.len(), 2);
        // One duplicate-name finding (A_STREAM redefined), one
        // duplicate-value finding (B_STREAM == A_STREAM).
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.lint == Lint::StreamRegistry));
    }

    #[test]
    fn github_format_is_one_annotation_per_finding() {
        let report = Report {
            findings: vec![Finding {
                lint: Lint::PanicPath,
                file: "crates/rlnc/src/decoder.rs".into(),
                line: 7,
                message: "boom".into(),
            }],
            ..Report::default()
        };
        let gh = report.render_github();
        assert_eq!(
            gh,
            "::error file=crates/rlnc/src/decoder.rs,line=7,title=xtask panic_path::boom\n"
        );
    }

    #[test]
    fn json_escapes_quotes() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
