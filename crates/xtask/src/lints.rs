//! The lint implementations: the line-based determinism lints and unsafe
//! audit, plus the expression-aware families (`panic_path`,
//! `stream_registry`, `pool_pairing`) that run over the parsed
//! item/expression model.

use crate::lexer::{find_word, FileView};
use crate::parser::ParsedFile;
use crate::tokens::TokKind;
use crate::{Ctx, Finding, Lint, Report, UnsafeSite};

// ---------------------------------------------------------------------
// Path classification.
// ---------------------------------------------------------------------

/// Which crate (the `crates/<name>` directory) a workspace-relative path
/// belongs to, if any.
pub(crate) fn crate_of(file: &str) -> Option<&str> {
    let rest = file.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Library crates: everything that ships simulation or coding logic.
/// `bench` and `xtask` are operator tooling — panicking on bad input is
/// the right behavior there, so `panic_path` does not apply.
pub(crate) fn is_library_crate(file: &str) -> bool {
    match crate_of(file) {
        Some(c) => !matches!(c, "bench" | "xtask"),
        None => file.starts_with("src/"),
    }
}

/// Paths that hold test or bench harness code: exempt from the
/// determinism and panic-path lints (tests pin literal seeds and unwrap
/// on purpose).
pub(crate) fn is_test_path(file: &str) -> bool {
    file.starts_with("tests/")
        || file.contains("/tests/")
        || file.starts_with("benches/")
        || file.contains("/benches/")
        || file.starts_with("examples/")
        || file.contains("/examples/")
}

/// Crate roots that must carry `#![forbid(unsafe_code)]`: every
/// `crates/<name>/src/lib.rs` except gf256 (the one crate allowed
/// `unsafe`), plus the umbrella `src/lib.rs`.
pub(crate) fn requires_forbid(file: &str) -> bool {
    if file == "src/lib.rs" {
        return true;
    }
    match (
        crate_of(file),
        file.split('/').collect::<Vec<_>>().as_slice(),
    ) {
        (Some(c), ["crates", _, "src", "lib.rs"]) => c != "gf256",
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Line-based determinism lints: rng_stream and float_ord.
// ---------------------------------------------------------------------

pub(crate) fn run_line_lints(file: &str, view: &FileView, findings: &mut Vec<Finding>) {
    let in_bench_crate = crate_of(file) == Some("bench");
    let test_path = is_test_path(file);

    for (i, code) in view.code.iter().enumerate() {
        let line = i + 1;
        if test_path || view.test[i] {
            continue; // determinism lints skip test code
        }
        let push = |lint: Lint, message: String, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                lint,
                file: file.to_string(),
                line,
                message,
            });
        };

        if !in_bench_crate {
            for name in SEEDING_CALLS {
                for arg in call_args(code, name) {
                    if !seed_arg_ok(&arg) {
                        push(
                            Lint::RngStream,
                            format!(
                                "`{name}({arg})` is not derived from the run seed; \
                                 pass the bare seed or `seed ^ <NAME>_STREAM` with a \
                                 named stream constant"
                            ),
                            findings,
                        );
                    }
                }
            }
        }

        if code.contains("partial_cmp") && !code.contains("fn partial_cmp") {
            let next = view.code.get(i + 1).map(String::as_str).unwrap_or("");
            let unwrapped = [code, next].iter().any(|l| {
                l.contains(".unwrap()") || l.contains(".expect(") || l.contains(".unwrap_or(")
            });
            if unwrapped {
                push(
                    Lint::FloatOrd,
                    "float ordering via partial_cmp + unwrap/expect/unwrap_or panics \
                     (or lies) on NaN; use f64::total_cmp for a deterministic total \
                     order"
                        .to_string(),
                    findings,
                );
            }
        }
    }
}

/// The generator constructors whose seed arguments `rng_stream` checks:
/// one seed, or an array of eight.
const SEEDING_CALLS: [&str; 2] = ["seed_from_u64", "seed_eight_from_u64"];

/// Extracts the argument text of each `name(...)` call on a code line.
fn call_args(code: &str, name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(name) {
        let start = from + pos + name.len();
        from = start;
        let rest = &code[start..];
        if !rest.starts_with('(') {
            continue;
        }
        let mut depth = 0usize;
        let mut end = rest.len();
        for (j, c) in rest.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        end = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push(rest[1..end].trim().to_string());
    }
    out
}

/// The argument of a [`SEEDING_CALLS`] call is acceptable when it
/// references a named `*_STREAM` constant, or is a plain path expression
/// mentioning the seed (`seed`, `run_seed`, `self.seed`, …) with no
/// arithmetic.
fn seed_arg_ok(arg: &str) -> bool {
    if arg.contains("_STREAM") {
        return true;
    }
    let plain = arg
        .chars()
        .all(|c| c.is_alphanumeric() || matches!(c, '_' | '.' | ':' | ' '));
    plain && arg.to_lowercase().contains("seed")
}

// ---------------------------------------------------------------------
// Unsafe audit.
// ---------------------------------------------------------------------

pub(crate) fn run_unsafe_audit(
    file: &str,
    view: &FileView,
    findings: &mut Vec<Finding>,
    report: &mut Report,
) {
    for (i, code) in view.code.iter().enumerate() {
        let mut from = 0;
        while let Some(pos) = find_word(&code[from..], "unsafe") {
            let at = from + pos;
            from = at + "unsafe".len();
            let after = code[from..].trim_start();
            let kind = if after.starts_with("fn") {
                "fn"
            } else if after.starts_with("impl") {
                "impl"
            } else if after.starts_with("trait") {
                "trait"
            } else {
                "block"
            };
            let safety = safety_comment(view, i);
            if safety.is_none() {
                findings.push(Finding {
                    lint: Lint::UndocumentedUnsafe,
                    file: file.to_string(),
                    line: i + 1,
                    message: format!(
                        "unsafe {kind} without a `// SAFETY:` comment on or directly \
                         above it"
                    ),
                });
            }
            report.unsafe_sites.push(UnsafeSite {
                file: file.to_string(),
                line: i + 1,
                kind,
                safety,
            });
        }
    }
}

/// The `SAFETY:` text for an unsafe site on line `i` (0-based): trailing
/// on the same raw line, or in the contiguous block of comments and
/// attributes directly above.
fn safety_comment(view: &FileView, i: usize) -> Option<String> {
    let extract = |raw: &str| {
        raw.find("SAFETY:")
            .map(|p| raw[p + "SAFETY:".len()..].trim().to_string())
    };
    if let Some(text) = view.comment[i].as_deref().and_then(extract) {
        return Some(text);
    }
    for j in (0..i).rev() {
        let t = view.raw[j].trim();
        if t.starts_with("//") {
            if let Some(text) = extract(t) {
                return Some(text);
            }
        } else if !t.starts_with("#[") && !t.starts_with("#![") {
            break;
        }
    }
    None
}

pub(crate) fn run_forbid_lint(file: &str, view: &FileView, findings: &mut Vec<Finding>) {
    if !requires_forbid(file) {
        return;
    }
    let has = view
        .code
        .iter()
        .any(|l| l.replace(' ', "").contains("#![forbid(unsafe_code)]"));
    if !has {
        findings.push(Finding {
            lint: Lint::MissingForbid,
            file: file.to_string(),
            line: 1,
            message: "crate root lacks #![forbid(unsafe_code)]; only crates/gf256 may \
                      contain unsafe so the audit inventory stays in one place"
                .to_string(),
        });
    }
}

// ---------------------------------------------------------------------
// Expression-aware lints.
// ---------------------------------------------------------------------

/// Panicking method calls `panic_path` flags.
const PANICKY_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];
/// Panicking macros `panic_path` flags. `assert*!` is deliberately not
/// here: an explicit assertion is a documented contract, not an
/// accidental panic path.
const PANICKY_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that make a following `[` an array literal or pattern, not an
/// index expression.
const NON_INDEX_PREV: [&str; 16] = [
    "return", "break", "continue", "if", "else", "match", "in", "loop", "while", "for", "move",
    "ref", "let", "use", "mod", "where",
];

pub(crate) fn run_expr_lints(
    file: &str,
    pf: &ParsedFile,
    view: &FileView,
    ctx: &Ctx,
    findings: &mut Vec<Finding>,
) {
    let test_path = is_test_path(file);
    let exempt = |line: usize| test_path || view.test.get(line - 1).copied().unwrap_or(false);
    let library = is_library_crate(file);
    let is_registry = ctx.registry_files.iter().any(|f| f == file);

    for (i, t) in pf.tokens.iter().enumerate() {
        if pf.in_attr(i) || exempt(t.line) {
            continue;
        }

        // --- stream_registry: every *_STREAM identifier must resolve to
        // a constant defined in the canonical registry module.
        if t.kind == TokKind::Ident && t.text.ends_with("_STREAM") && t.text.len() > "_STREAM".len()
        {
            let is_def_here = pf
                .consts
                .iter()
                .any(|c| c.name == t.text && c.line == t.line);
            if is_def_here {
                if !is_registry {
                    findings.push(Finding {
                        lint: Lint::StreamRegistry,
                        file: file.to_string(),
                        line: t.line,
                        message: format!(
                            "stream constant `{}` is defined outside the canonical \
                             registry module (the file marked `// xtask: \
                             stream-registry`); move it there so every RNG stream \
                             stays workspace-unique and auditable in one place",
                            t.text
                        ),
                    });
                }
            } else if !ctx.streams.contains_key(&t.text) {
                let hint = if ctx.registry_files.is_empty() {
                    "no stream-registry module exists yet (mark one with a `// xtask: \
                     stream-registry` comment)"
                } else {
                    "add it to the registry module"
                };
                findings.push(Finding {
                    lint: Lint::StreamRegistry,
                    file: file.to_string(),
                    line: t.line,
                    message: format!(
                        "`{}` does not name a registered stream constant; {hint}",
                        t.text
                    ),
                });
            }
        }

        if !library {
            continue;
        }

        // --- panic_path: unwrap/expect method calls.
        if t.is(".") {
            if let (Some(name), Some(paren)) = (pf.tokens.get(i + 1), pf.tokens.get(i + 2)) {
                if name.kind == TokKind::Ident
                    && PANICKY_METHODS.contains(&name.text.as_str())
                    && paren.is("(")
                    && !exempt(name.line)
                {
                    findings.push(Finding {
                        lint: Lint::PanicPath,
                        file: file.to_string(),
                        line: name.line,
                        message: format!(
                            "`.{}(..)` panics in library code; return a typed error \
                             (or justify the invariant with an allow)",
                            name.text
                        ),
                    });
                }
            }
        }

        // --- panic_path: panicking macros.
        if t.kind == TokKind::Ident
            && PANICKY_MACROS.contains(&t.text.as_str())
            && pf.tokens.get(i + 1).is_some_and(|n| n.is("!"))
        {
            findings.push(Finding {
                lint: Lint::PanicPath,
                file: file.to_string(),
                line: t.line,
                message: format!(
                    "`{}!` in library code aborts the whole simulation; return a \
                     typed error (or justify the invariant with an allow)",
                    t.text
                ),
            });
        }

        // --- panic_path: direct indexing inside fn bodies.
        if t.is("[") && i > 0 && pf.enclosing_fn(i).is_some() {
            let prev = &pf.tokens[i - 1];
            let indexes = match prev.kind {
                TokKind::Ident => !NON_INDEX_PREV.contains(&prev.text.as_str()),
                TokKind::Punct => prev.is("]") || prev.is(")"),
                _ => false,
            };
            // `[..]` (RangeFull) cannot panic on a slice/Vec.
            let range_full = pf.tokens.get(i + 1).is_some_and(|n| n.is(".."))
                && pf.tokens.get(i + 2).is_some_and(|n| n.is("]"));
            if indexes && !range_full && !pf.in_attr(i - 1) {
                findings.push(Finding {
                    lint: Lint::PanicPath,
                    file: file.to_string(),
                    line: t.line,
                    message: "direct indexing panics when out of bounds; use get()/\
                              iterators, or justify the bound with an allow"
                        .to_string(),
                });
            }
        }

        // --- pool_pairing: acquire sites need a reachable release.
        if t.kind == TokKind::Ident
            && t.is("pool")
            && pf.tokens.get(i + 1).is_some_and(|n| n.is("::"))
        {
            if let Some(callee) = pf.tokens.get(i + 2) {
                let flavor = match callee.text.as_str() {
                    "acquire" => Some(PoolFlavor::Buffer),
                    "acquire_vec" => Some(PoolFlavor::Vec),
                    _ => None,
                };
                if let Some(flavor) = flavor {
                    if !acquire_is_paired(pf, i, flavor) {
                        findings.push(Finding {
                            lint: Lint::PoolPairing,
                            file: file.to_string(),
                            line: callee.line,
                            message: format!(
                                "`pool::{}` has no reachable `pool::{}` in the same \
                                 impl (or a Drop impl for the same type in this \
                                 file); pair it, or document the ownership transfer \
                                 with an allow",
                                callee.text,
                                flavor.release_names().join("`/`pool::"),
                            ),
                        });
                    }
                }
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum PoolFlavor {
    /// Flat packet buffers: `acquire` ↔ `release`/`release_mut`.
    Buffer,
    /// Row vectors: `acquire_vec` ↔ `release_vec`.
    Vec,
}

impl PoolFlavor {
    fn release_names(self) -> &'static [&'static str] {
        match self {
            PoolFlavor::Buffer => &["release", "release_mut"],
            PoolFlavor::Vec => &["release_vec"],
        }
    }
}

/// Whether the acquire at token `i` has a matching release in the same
/// impl block, in a Drop impl for the same type in this file, or (for
/// free functions) in the same fn body.
fn acquire_is_paired(pf: &ParsedFile, i: usize, flavor: PoolFlavor) -> bool {
    let released_within = |span: (usize, usize)| {
        (span.0..=span.1.min(pf.tokens.len().saturating_sub(1))).any(|j| {
            pf.tokens[j].is("pool")
                && pf.tokens.get(j + 1).is_some_and(|n| n.is("::"))
                && pf
                    .tokens
                    .get(j + 2)
                    .is_some_and(|n| flavor.release_names().contains(&n.text.as_str()))
        })
    };
    match pf.enclosing_impl(i) {
        // The release may live in the same impl, a sibling *inherent*
        // impl of the same type, or that type's Drop impl — but a release
        // inside some unrelated trait impl doesn't make the acquire safe.
        Some(im) => pf.impls.iter().any(|other| {
            other.type_name == im.type_name
                && (other.span == im.span
                    || other.trait_name.is_none()
                    || other.trait_name.as_deref() == Some("Drop"))
                && released_within(other.span)
        }),
        None => pf.enclosing_fn(i).is_some_and(released_within),
    }
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn seed_args_classified() {
        assert!(seed_arg_ok("seed"));
        assert!(seed_arg_ok("run_seed"));
        assert!(seed_arg_ok("self.seed"));
        assert!(seed_arg_ok("seed ^ CHANNEL_STREAM"));
        assert!(seed_arg_ok("seed ^ attempt.wrapping_mul(GEO_STREAM)"));
        assert!(!seed_arg_ok("12345"));
        assert!(!seed_arg_ok("seed * 31 + k"));
        assert!(!seed_arg_ok("k as u64"));
    }

    #[test]
    fn library_crate_classification() {
        assert!(is_library_crate("crates/rlnc/src/decoder.rs"));
        assert!(is_library_crate("crates/gf256/src/wide.rs"));
        assert!(is_library_crate("crates/mesh-topology/src/json.rs"));
        assert!(is_library_crate("src/lib.rs"));
        assert!(!is_library_crate("crates/bench/src/stats.rs"));
        assert!(!is_library_crate("crates/xtask/src/lints.rs"));
        assert!(!is_library_crate("examples/quickstart.rs"));
    }

    #[test]
    fn forbid_required_everywhere_but_gf256() {
        assert!(requires_forbid("src/lib.rs"));
        assert!(requires_forbid("crates/mesh-sim/src/lib.rs"));
        assert!(requires_forbid("crates/xtask/src/lib.rs"));
        assert!(!requires_forbid("crates/gf256/src/lib.rs"));
        assert!(!requires_forbid("crates/mesh-sim/src/simulator.rs"));
    }
}
