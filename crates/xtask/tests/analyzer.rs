//! The analyzer against its fixture trees and the real workspace: one
//! test per lint on the deliberately-bad tree, allowlist suppression
//! and accounting, and the real workspace staying clean.

use std::path::PathBuf;
use xtask::{analyze_root, Lint, Report};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn bad_report() -> Report {
    analyze_root(&fixture("bad")).expect("analyze bad fixture tree")
}

#[test]
fn bad_tree_is_dirty() {
    assert!(!bad_report().is_clean());
}

#[test]
fn hash_iteration_fires_outside_tests_only() {
    let r = bad_report();
    let lines: Vec<usize> = r.of(Lint::HashIteration).iter().map(|f| f.line).collect();
    // `use HashMap` + two body mentions fire; the #[cfg(test)] HashSet
    // (two mentions) must not.
    assert_eq!(lines, vec![5, 7, 8], "{lines:?}");
}

#[test]
fn wall_clock_fires() {
    let r = bad_report();
    assert_eq!(r.of(Lint::WallClock).len(), 1);
    assert_eq!(r.of(Lint::WallClock)[0].line, 12);
}

#[test]
fn rng_stream_fires_on_entropy_and_unnamed_streams_only() {
    let r = bad_report();
    let lines: Vec<usize> = r.of(Lint::RngStream).iter().map(|f| f.line).collect();
    // thread_rng (17) and the magic-number stream (21) fire; the named
    // *_STREAM constant (25) and the #[cfg(test)] literal seed do not.
    assert_eq!(lines, vec![16, 20], "{lines:?}");
}

#[test]
fn float_ord_fires_including_multiline_chains() {
    let r = bad_report();
    let lines: Vec<usize> = r.of(Lint::FloatOrd).iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![28, 33], "{lines:?}");
}

#[test]
fn undocumented_unsafe_fires_and_is_inventoried() {
    let r = bad_report();
    assert_eq!(r.of(Lint::UndocumentedUnsafe).len(), 1);
    assert_eq!(r.of(Lint::UndocumentedUnsafe)[0].line, 39);
    assert_eq!(r.unsafe_sites.len(), 1);
    assert!(r.unsafe_sites[0].safety.is_none());
}

#[test]
fn missing_forbid_fires_on_the_crate_root() {
    let r = bad_report();
    assert_eq!(r.of(Lint::MissingForbid).len(), 1);
    assert_eq!(
        r.of(Lint::MissingForbid)[0].file,
        "crates/mesh-sim/src/lib.rs"
    );
}

#[test]
fn bad_tree_panic_path_fires_on_the_comparator_unwrap() {
    let r = bad_report();
    let lines: Vec<usize> = r.of(Lint::PanicPath).iter().map(|f| f.line).collect();
    // The float_sort unwrap (28) fires; unwrap_or (34) and the
    // #[cfg(test)] unwrap (51) do not.
    assert_eq!(lines, vec![28], "{lines:?}");
}

#[test]
fn bad_tree_stream_reference_needs_a_registry() {
    let r = bad_report();
    let lines: Vec<usize> = r.of(Lint::StreamRegistry).iter().map(|f| f.line).collect();
    // CHANNEL_STREAM (24) resolves to no registry module in this tree.
    assert_eq!(lines, vec![24], "{lines:?}");
}

#[test]
fn panic_path_fixture_fires_on_explicit_panics_and_indexing_only() {
    let r = analyze_root(&fixture("panic_path")).expect("analyze panic_path tree");
    let findings = r.of(Lint::PanicPath);
    assert!(
        findings.iter().all(|f| f.file == "crates/rlnc/src/lib.rs"),
        "{}",
        r.render()
    );
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    // unwrap, expect, panic!, unreachable!, v[0] — while &v[..], the
    // #[cfg(test)] module, and tests/it.rs stay exempt.
    assert_eq!(lines, vec![7, 11, 16, 23, 28], "{lines:?}");
    // The line allow in lib.rs plus the three sites under kernel.rs's
    // file-scoped allow.
    assert_eq!(
        r.suppressed.get(&Lint::PanicPath),
        Some(&4),
        "{}",
        r.render()
    );
    assert!(r.allows.iter().all(|a| a.used));
}

#[test]
fn stream_registry_fixture_fires_on_rogue_and_unregistered_streams() {
    let r = analyze_root(&fixture("stream_registry")).expect("analyze stream_registry tree");
    let findings = r.of(Lint::StreamRegistry);
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    // ROGUE_STREAM defined outside the registry (5) and the
    // unregistered GHOST_STREAM reference (12) fire; the registered
    // ALPHA_STREAM reference does not.
    assert_eq!(lines, vec![5, 12], "{lines:?}");
    assert_eq!(r.suppressed.get(&Lint::StreamRegistry), Some(&1));
    // Both registered constants are inventoried.
    assert_eq!(r.stream_registry.len(), 2);
    assert!(r.stream_registry.contains_key("ALPHA_STREAM"));
    assert!(r.stream_registry.contains_key("BETA_STREAM"));
}

#[test]
fn pool_pairing_fixture_fires_on_the_leak_only() {
    let r = analyze_root(&fixture("pool_pairing")).expect("analyze pool_pairing tree");
    let findings = r.of(Lint::PoolPairing);
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    // Leaky::grab (10) fires; the sibling-released Paired, the
    // Drop-released Guard, the paired free fn, and the allowed
    // Transfer::grab do not.
    assert_eq!(lines, vec![10], "{lines:?}");
    assert_eq!(r.suppressed.get(&Lint::PoolPairing), Some(&1));
}

#[test]
fn must_use_api_fixture_fires_on_unannotated_chainables_only() {
    let r = analyze_root(&fixture("must_use_api")).expect("analyze must_use_api tree");
    let findings = r.of(Lint::MustUseApi);
    let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
    // RunBuilder::k (11) and make_builder (47) fire; the #[must_use]
    // method, the &Self getter, the Result builder, and the annotated
    // AnnotatedBuilder type's method do not.
    assert_eq!(lines, vec![11, 47], "{lines:?}");
    assert_eq!(r.suppressed.get(&Lint::MustUseApi), Some(&1));
}

#[test]
fn ratchet_fixture_has_exactly_one_deliberate_finding() {
    let r = analyze_root(&fixture("ratchet")).expect("analyze ratchet tree");
    assert_eq!(r.counts().get("panic_path"), Some(&1), "{}", r.render());
}

#[test]
fn allowlist_suppresses_and_every_entry_is_reported() {
    let r = analyze_root(&fixture("allow")).expect("analyze allow fixture tree");
    assert!(
        r.is_clean(),
        "all violations are allowlisted:\n{}",
        r.render()
    );
    // Seven used entries: missing_forbid, 3× hash_iteration, wall_clock,
    // float_ord, panic_path — plus the deliberately-unused rng_stream one.
    assert_eq!(r.allows.len(), 8);
    let unused: Vec<&str> = r
        .allows
        .iter()
        .filter(|a| !a.used)
        .map(|a| a.lint.name())
        .collect();
    assert_eq!(unused, vec!["rng_stream"]);
    let rendered = r.render();
    assert!(rendered.contains("allowlist entries: 8"));
    assert!(rendered.contains("UNUSED"));
    assert!(rendered.contains("lookup-only cache, never iterated"));
}

#[test]
fn real_workspace_is_clean_with_a_fully_documented_unsafe_inventory() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let r = analyze_root(&root).expect("analyze workspace");
    assert!(
        r.is_clean(),
        "workspace must stay lint-clean:\n{}",
        r.render()
    );
    // The audited unsafe surface: the gf256 SIMD kernels (per tier — GFNI
    // and AVX2 — one dispatch block, one grouping fn and one const-generic
    // pass fn) and the counting global allocator in the allocation-budget
    // harness (1 impl + 3 fns + 3 forwarding blocks), every site carrying
    // a SAFETY comment.
    assert_eq!(r.unsafe_sites.len(), 13, "{}", r.render());
    assert!(r.unsafe_sites.iter().all(|s| s.safety.is_some()));
    assert!(r
        .unsafe_sites
        .iter()
        .all(|s| s.file == "crates/gf256/src/wide.rs" || s.file == "tests/alloc_budget.rs"));
}
