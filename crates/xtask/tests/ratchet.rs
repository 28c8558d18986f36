//! The ratchet binary end to end: bootstrap, steady state, a deliberate
//! regression failing `--check`, a fall tightening the baseline (and
//! failing `--check`) — plus the analyze output formats CI consumes and
//! the committed baseline counting exactly the lints that exist.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use xtask::baseline::{Baseline, BASELINE_FILE};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn xtask(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("spawn xtask binary")
}

fn tmp_baseline(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    fs::create_dir_all(&dir).expect("create target tmpdir");
    dir.join(name)
}

fn run_ratchet(root: &Path, baseline: &Path, check: bool) -> Output {
    let root = root.to_str().expect("utf8 root");
    let baseline = baseline.to_str().expect("utf8 baseline");
    let mut args = vec!["ratchet", "--root", root, "--baseline", baseline];
    if check {
        args.push("--check");
    }
    xtask(&args)
}

#[test]
fn ratchet_bootstraps_then_holds_steady() {
    let baseline = tmp_baseline("ratchet-bootstrap.json");
    let _ = fs::remove_file(&baseline);
    let root = fixture("ratchet");

    // --check refuses to invent a baseline.
    let out = run_ratchet(&root, &baseline, true);
    assert!(!out.status.success());
    assert!(!baseline.exists());

    // First plain run bootstraps the file with today's counts.
    let out = run_ratchet(&root, &baseline, false);
    assert!(out.status.success(), "{out:?}");
    let text = fs::read_to_string(&baseline).expect("baseline written");
    assert!(text.contains("\"panic_path\": 1"), "{text}");

    // Steady state: same tree, same counts, check passes.
    let out = run_ratchet(&root, &baseline, true);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn ratchet_fails_on_a_deliberate_regression() {
    let baseline = tmp_baseline("ratchet-regression.json");
    // A committed baseline of zero findings makes the fixture's one
    // deliberate unwrap a regression.
    fs::write(
        &baseline,
        "{\n  \"schema\": 1,\n  \"counts\": {\n    \"panic_path\": 0\n  }\n}\n",
    )
    .expect("write regression baseline");

    let out = run_ratchet(&fixture("ratchet"), &baseline, true);
    assert!(!out.status.success(), "a count rise must fail the ratchet");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("`panic_path` rose 0 -> 1"), "{stdout}");

    // --check never rewrites the file, even on failure.
    let text = fs::read_to_string(&baseline).expect("baseline intact");
    assert!(text.contains("\"panic_path\": 0"), "{text}");
}

#[test]
fn ratchet_tightens_the_baseline_when_counts_fall() {
    let baseline = tmp_baseline("ratchet-tighten.json");
    fs::write(
        &baseline,
        "{\n  \"schema\": 1,\n  \"counts\": {\n    \"panic_path\": 2\n  }\n}\n",
    )
    .expect("write loose baseline");

    let out = run_ratchet(&fixture("ratchet"), &baseline, false);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("`panic_path` fell 2 -> 1"), "{stdout}");
    assert!(stdout.contains("baseline tightened"), "{stdout}");
    let text = fs::read_to_string(&baseline).expect("baseline rewritten");
    assert!(text.contains("\"panic_path\": 1"), "{text}");
}

#[test]
fn ratchet_check_fails_when_the_baseline_is_looser_than_the_tree() {
    let baseline = tmp_baseline("ratchet-loose.json");
    let loose = "{\n  \"schema\": 1,\n  \"counts\": {\n    \"panic_path\": 2\n  }\n}\n";
    fs::write(&baseline, loose).expect("write loose baseline");

    // A fall is slack a later finding could take back for free: --check
    // fails on it and says how to lock it in, without rewriting the file.
    let out = run_ratchet(&fixture("ratchet"), &baseline, true);
    assert!(!out.status.success(), "a count fall must fail --check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("`panic_path` fell 2 -> 1"), "{stdout}");
    assert!(
        stdout.contains(
            "baseline looser than the tree: run `cargo run -p xtask -- ratchet` and commit"
        ),
        "{stdout}"
    );
    assert_eq!(
        fs::read_to_string(&baseline).expect("baseline intact"),
        loose
    );
}

#[test]
fn analyze_github_format_emits_error_annotations() {
    let root = fixture("ratchet");
    let out = xtask(&[
        "analyze",
        "--root",
        root.to_str().expect("utf8 root"),
        "--format",
        "github",
    ]);
    assert!(!out.status.success(), "dirty tree must exit non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("::error file=crates/rlnc/src/lib.rs,line=6,"),
        "{stdout}"
    );
    assert!(stdout.contains("title=xtask panic_path"), "{stdout}");
}

#[test]
fn analyze_json_format_reports_counts() {
    let root = fixture("ratchet");
    let out = xtask(&[
        "analyze",
        "--root",
        root.to_str().expect("utf8 root"),
        "--format",
        "json",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"findings\""), "{stdout}");
    assert!(stdout.contains("\"panic_path\""), "{stdout}");
}

#[test]
fn committed_baseline_counts_exactly_the_current_lints() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    let text = fs::read_to_string(root.join(BASELINE_FILE)).expect("read committed baseline");
    let baseline = Baseline::parse(&text).expect("parse committed baseline");
    let counts = xtask::analyze_root(&root)
        .expect("analyze workspace")
        .counts();
    // A retired lint must not linger in the file, and a new one must not
    // go uncounted.
    assert!(
        baseline.counts.keys().eq(counts.keys()),
        "baseline keys {:?} != analyzer keys {:?}",
        baseline.counts.keys().collect::<Vec<_>>(),
        counts.keys().collect::<Vec<_>>()
    );
}
