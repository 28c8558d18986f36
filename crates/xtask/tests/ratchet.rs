//! The ratchet's counting and verdicts: repeated findings count once,
//! a rise fails, a fall tightens the baseline (and fails `--check`), a
//! missing baseline bootstraps, a grown crate fails `--check` — and the
//! committed baseline counts exactly the lints the ratchet forces and the
//! crates it measures.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use xtask::baseline::{ratchet, Baseline, BASELINE_FILE};
use xtask::{count, loc_counts, LOC_PREFIX, PASSES};

/// One line of cargo's `--message-format=json` output: a finding of
/// `lint` at `file:line:column`.
fn finding(lint: &str, file: &str, line: u32, column: u32) -> String {
    format!(
        r#"{{"reason":"compiler-message","package_id":"p","message":{{"message":"m","code":{{"code":"{lint}","explanation":null}},"level":"warning","spans":[{{"file_name":"{file}","line_start":{line},"column_start":{column},"is_primary":true}}],"children":[{{"message":"help","code":null,"spans":[]}}],"rendered":"warning: m \"quoted\" é"}}}}"#
    )
}

fn tmp_baseline(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    fs::create_dir_all(&dir).expect("create target tmpdir");
    dir.join(name)
}

fn counts(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

fn write_baseline(name: &str, pairs: &[(&str, usize)]) -> PathBuf {
    let path = tmp_baseline(name);
    fs::write(&path, Baseline::new(counts(pairs)).render()).expect("write baseline");
    path
}

#[test]
fn repeated_findings_count_once() {
    let lines = [
        // The same site reported by the lib build and by the test harness.
        finding(
            "clippy::indexing_slicing",
            "crates/rlnc/src/decoder.rs",
            7,
            9,
        ),
        finding(
            "clippy::indexing_slicing",
            "crates/rlnc/src/decoder.rs",
            7,
            9,
        ),
        // Another site on the same line.
        finding(
            "clippy::indexing_slicing",
            "crates/rlnc/src/decoder.rs",
            7,
            30,
        ),
        finding("clippy::expect_used", "src/lib.rs", 3, 1),
        // Outside the library crates, and a lint the pass does not count.
        finding("clippy::panic", "crates/bench/src/paper.rs", 1, 1),
        finding("clippy::panic", "vendor/rand/src/lib.rs", 1, 1),
        finding("clippy::needless_range_loop", "src/lib.rs", 5, 1),
        r#"{"reason":"compiler-artifact","package_id":"p"}"#.to_string(),
        "not json".to_string(),
    ];
    let got = count(&PASSES[0], &lines.join("\n"));
    assert_eq!(got["clippy::indexing_slicing"], 2);
    assert_eq!(got["clippy::expect_used"], 1);
    assert_eq!(got["clippy::panic"], 0);
    assert!(!got.contains_key("clippy::needless_range_loop"));
    assert_eq!(
        got.len(),
        PASSES[0].lints.len(),
        "every counted lint has a key"
    );

    // The unsafe pass counts everywhere, vendored crates and tests too.
    let unsafe_lines = [
        finding("unsafe_code", "vendor/rand_chacha/src/lib.rs", 9, 5),
        finding("unsafe_code", "tests/alloc_budget.rs", 30, 1),
        finding("unsafe_code", "tests/alloc_budget.rs", 30, 1),
    ];
    assert_eq!(
        count(&PASSES[1], &unsafe_lines.join("\n")),
        counts(&[("unsafe_code", 2)])
    );
}

#[test]
fn ratchet_bootstraps_then_holds_steady() {
    let path = tmp_baseline("ratchet-bootstrap.json");
    let _ = fs::remove_file(&path);
    let now = counts(&[("clippy::panic", 1)]);

    // --check refuses to invent a baseline.
    let v = ratchet(&path, now.clone(), true).expect("ratchet runs");
    assert!(!v.passed);
    assert!(!path.exists());

    // A plain run bootstraps the file with today's counts.
    let v = ratchet(&path, now.clone(), false).expect("ratchet runs");
    assert!(v.passed, "{v:?}");
    let text = fs::read_to_string(&path).expect("baseline written");
    assert!(text.contains("\"clippy::panic\": 1"), "{text}");

    // Same counts: --check passes.
    assert!(ratchet(&path, now, true).expect("ratchet runs").passed);
}

#[test]
fn a_rise_fails_and_check_never_rewrites() {
    let path = write_baseline("ratchet-rise.json", &[("clippy::panic", 0)]);
    let before = fs::read_to_string(&path).expect("baseline");
    for check in [true, false] {
        let v = ratchet(&path, counts(&[("clippy::panic", 1)]), check).expect("ratchet runs");
        assert!(!v.passed, "a count rise must fail the ratchet");
        assert!(v.lines[0].contains("`clippy::panic` rose 0 -> 1"), "{v:?}");
        assert_eq!(fs::read_to_string(&path).expect("baseline"), before);
    }
}

#[test]
fn a_fall_tightens_the_baseline() {
    let path = write_baseline("ratchet-fall.json", &[("unsafe_code", 2)]);
    let v = ratchet(&path, counts(&[("unsafe_code", 1)]), false).expect("ratchet runs");
    assert!(v.passed, "{v:?}");
    assert!(v.lines[0].contains("`unsafe_code` fell 2 -> 1"), "{v:?}");
    assert!(v.lines[1].contains("baseline tightened"), "{v:?}");
    let text = fs::read_to_string(&path).expect("baseline rewritten");
    assert!(text.contains("\"unsafe_code\": 1"), "{text}");
}

#[test]
fn check_fails_when_the_baseline_is_looser_than_the_tree() {
    // A fall is slack a later finding could take back for free: --check
    // fails on it and says how to lock it in, without rewriting the file.
    let path = write_baseline("ratchet-loose.json", &[("unsafe_code", 2)]);
    let loose = fs::read_to_string(&path).expect("baseline");
    let v = ratchet(&path, counts(&[("unsafe_code", 1)]), true).expect("ratchet runs");
    assert!(!v.passed, "a count fall must fail --check");
    assert!(
        v.lines[1].contains(
            "baseline looser than the tree: run `cargo run -p xtask -- ratchet` and commit"
        ),
        "{v:?}"
    );
    assert_eq!(fs::read_to_string(&path).expect("baseline"), loose);
}

#[test]
fn a_grown_crate_fails_check() {
    let root = tmp_baseline("loc-tree");
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/demo/src");
    fs::create_dir_all(src.join("inner")).expect("create demo crate");
    let write = |path: PathBuf, text: &str| fs::write(path, text).expect("write demo file");
    write(
        root.join("crates/demo/Cargo.toml"),
        "[package]\nname = \"demo-crate\"\n\n[lib]\nname = \"demo\"\n",
    );
    // Blank lines and everything from `#[cfg(test)]` on do not count.
    write(
        src.join("lib.rs"),
        "//! Demo.\n\npub mod inner;\n#[cfg(test)]\nmod test {}\n",
    );
    write(src.join("inner/mod.rs"), "pub fn f() {}\n");
    write(root.join("crates/demo/README.md"), "not a crate source\n");
    let before = loc_counts(&root).expect("count lines");
    assert_eq!(before, counts(&[("loc::demo-crate", 3)]));
    let path = root.join(BASELINE_FILE);
    assert!(ratchet(&path, before, false).expect("ratchet runs").passed);

    write(src.join("inner/mod.rs"), "pub fn f() {}\npub fn g() {}\n");
    let v = ratchet(&path, loc_counts(&root).expect("count lines"), true).expect("ratchet runs");
    assert!(!v.passed, "a grown crate must fail --check");
    assert!(
        v.lines[0].contains("`loc::demo-crate` rose 3 -> 4"),
        "{v:?}"
    );
}

#[test]
fn committed_baseline_counts_exactly_the_ratcheted_lints() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = fs::read_to_string(root.join(BASELINE_FILE)).expect("read committed baseline");
    let baseline = Baseline::parse(&text).expect("parse committed baseline");
    let mut lints: Vec<&str> = PASSES
        .iter()
        .flat_map(|p| p.lints.iter().copied())
        .collect();
    lints.sort_unstable();
    let (locs, counted): (Vec<&str>, Vec<&str>) = baseline
        .counts
        .keys()
        .map(String::as_str)
        .partition(|k| k.starts_with(LOC_PREFIX));
    // A lint the ratchet stopped counting must not linger in the file,
    // and a new one must not go uncounted; likewise a crate.
    assert_eq!(counted, lints, "baseline lint keys != ratcheted lints");
    let crates = loc_counts(&root).expect("count lines");
    assert!(
        locs.iter().copied().eq(crates.keys().map(String::as_str)),
        "baseline line keys {locs:?} != crates {:?}",
        crates.keys().collect::<Vec<_>>(),
    );
}
