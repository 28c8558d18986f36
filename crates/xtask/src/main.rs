//! `cargo run -p xtask -- ratchet [--check]`
//!
//! Runs clippy once per [`xtask::PASSES`] entry with its lints forced to
//! warn, counts the findings per lint — the ones an `#[expect(..)]`
//! suppresses included — and compares the counts with the committed
//! `xtask-baseline.json`: any rise fails, any fall rewrites the baseline
//! so the improvement locks in — or, under `--check`, fails too, so a
//! baseline looser than the tree cannot sit in CI unnoticed. Each crate's
//! non-test line count ([`xtask::loc_counts`]) is ratcheted the same way.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// A float ordering cannot `unwrap`/`expect` a `partial_cmp` here: the
// non-test build bans both outright (use `f64::total_cmp`).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xtask::baseline::{ratchet, BASELINE_FILE};

const USAGE: &str = "\
usage: cargo run -p xtask -- ratchet [--check]

Counts clippy findings per lint, the ones #[expect(..)] suppresses
included, and each crate's non-test lines, and compares them with the
committed baseline: a rise fails, a fall tightens the file.

--check  read-only: fail on any rise or fall, never rewrite the file
";

fn fail_usage(message: &str) -> ExitCode {
    eprintln!("{message}\n\n{USAGE}");
    ExitCode::from(2)
}

/// Per-lint counts over every pass, or what went wrong running cargo.
fn clippy_counts(root: &Path) -> Result<BTreeMap<String, usize>, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut counts = BTreeMap::new();
    for pass in &xtask::PASSES {
        let args = xtask::clippy_args(pass);
        let out = Command::new(&cargo)
            .args(&args)
            .current_dir(root)
            .output()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "`cargo {}` failed:\n{}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        counts.extend(xtask::count(pass, &String::from_utf8_lossy(&out.stdout)));
    }
    Ok(counts)
}

fn main() -> ExitCode {
    let mut ratchet_cmd = false;
    let mut check = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "ratchet" if !ratchet_cmd => ratchet_cmd = true,
            "--check" => check = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail_usage(&format!("unknown argument `{other}`")),
        }
    }
    if !ratchet_cmd {
        return fail_usage("no command given");
    }

    // This workspace as `cargo run` names it, not the checkout the binary was built in.
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    let root = manifest_dir.ancestors().nth(2).unwrap_or(&manifest_dir);
    let outcome = clippy_counts(root)
        .and_then(|mut counts| {
            counts.extend(xtask::loc_counts(root)?);
            Ok(counts)
        })
        .and_then(|counts| ratchet(&root.join(BASELINE_FILE), counts, check));
    match outcome {
        Ok(verdict) => {
            for line in &verdict.lines {
                println!("{line}");
            }
            if verdict.passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask ratchet: {e}");
            ExitCode::from(2)
        }
    }
}
