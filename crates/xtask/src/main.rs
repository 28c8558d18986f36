//! `cargo run -p xtask -- <analyze|ratchet> [..]`
//!
//! `analyze` runs the determinism, panic-freedom, and unsafe-audit lints
//! over the workspace and prints the report (text, JSON, or GitHub
//! annotations). Exits non-zero when any finding survives the allowlist.
//!
//! `ratchet` compares the run's per-lint counts (suppressed findings
//! included) against the committed `xtask-baseline.json`: any rise fails,
//! any fall rewrites the baseline so the improvement locks in — or, under
//! `--check`, fails too, so a baseline looser than the tree cannot sit in
//! CI unnoticed.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use xtask::baseline::{Baseline, BASELINE_FILE};

const USAGE: &str = "\
usage: cargo run -p xtask -- analyze [--root DIR] [--format text|json|github]
       cargo run -p xtask -- ratchet [--root DIR] [--baseline FILE] [--check]

analyze runs the workspace static-analysis suite:
  determinism lints   rng_stream, float_ord
  panic freedom       panic_path, stream_registry, pool_pairing
  unsafe audit        undocumented_unsafe, missing_forbid
  escape hatch        // xtask: allow(<lint>[, file]) -- <justification>

HashMap/HashSet, wall-clock reads and `Self` returns without #[must_use]
are clippy's to catch (clippy.toml; a crate-level deny in scenario and
mesh-sim), not analyze's.

ratchet compares per-lint counts (allow-suppressed findings included)
against the committed baseline: a rise fails, a fall tightens the file.

--root DIR       analyze DIR instead of the enclosing workspace root
--format FMT     analyze output: text (default), json, github annotations
--baseline FILE  ratchet against FILE instead of <root>/xtask-baseline.json
--check          read-only ratchet: fail on any rise or fall, never rewrite the file
";

fn fail_usage(message: &str) -> ExitCode {
    eprintln!("{message}\n\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut cmd: Option<&str> = None;
    let mut format = "text".to_string();
    let mut baseline_path: Option<PathBuf> = None;
    let mut check = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "analyze" | "ratchet" if cmd.is_none() => {
                cmd = Some(if a == "analyze" { "analyze" } else { "ratchet" })
            }
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return fail_usage("--root needs a directory"),
            },
            "--format" => match it.next() {
                Some(f) if matches!(f.as_str(), "text" | "json" | "github") => {
                    format = f.clone();
                }
                Some(f) => return fail_usage(&format!("unknown format `{f}`")),
                None => return fail_usage("--format needs text|json|github"),
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return fail_usage("--baseline needs a file"),
            },
            "--check" => check = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail_usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(cmd) = cmd else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };

    // Default root: the workspace that contains this crate.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("crates/xtask sits two levels below the workspace root")
            .to_path_buf()
    });

    let report = match xtask::analyze_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask {cmd}: failed to read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    match cmd {
        "analyze" => {
            match format.as_str() {
                "json" => print!("{}", report.to_json()),
                "github" => {
                    print!("{}", report.render_github());
                    // Annotations alone hide the summary; keep it on the
                    // job log too.
                    eprint!("{}", report.render());
                }
                _ => print!("{}", report.render()),
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            let path = baseline_path.unwrap_or_else(|| root.join(BASELINE_FILE));
            let counts = report.counts();
            let current = Baseline::new(counts);
            let text = match fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    // Bootstrap: no baseline yet — write today's counts.
                    if check {
                        eprintln!(
                            "xtask ratchet: no baseline at {} (run without --check to create it)",
                            path.display()
                        );
                        return ExitCode::FAILURE;
                    }
                    if let Err(e) = fs::write(&path, current.render()) {
                        eprintln!("xtask ratchet: cannot write {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                    println!("xtask ratchet: initialized baseline at {}", path.display());
                    return ExitCode::SUCCESS;
                }
                Err(e) => {
                    eprintln!("xtask ratchet: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let baseline = match Baseline::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("xtask ratchet: malformed {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let result = baseline.compare(&current.counts);
            for d in &result.rises {
                println!(
                    "xtask ratchet: `{}` rose {} -> {} (fix the regression or re-justify \
                     the baseline in review)",
                    d.key, d.baseline, d.current
                );
            }
            for d in &result.falls {
                println!(
                    "xtask ratchet: `{}` fell {} -> {}",
                    d.key, d.baseline, d.current
                );
            }
            if !result.passed() {
                return ExitCode::FAILURE;
            }
            if !result.falls.is_empty() {
                if check {
                    println!(
                        "xtask ratchet: baseline looser than the tree: run \
                         `cargo run -p xtask -- ratchet` and commit"
                    );
                    return ExitCode::FAILURE;
                }
                if let Err(e) = fs::write(&path, current.render()) {
                    eprintln!("xtask ratchet: cannot tighten {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                println!("xtask ratchet: baseline tightened at {}", path.display());
            } else {
                println!(
                    "xtask ratchet: ok ({} counts at baseline)",
                    baseline.counts.len()
                );
            }
            ExitCode::SUCCESS
        }
    }
}
