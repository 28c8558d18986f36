//! `paper list | all | <name> [--flag value]...`: runs experiments of
//! [`more_bench::paper::CATALOG`]. `all` runs every one at its default
//! flags and ends with the claims table (paper vs measured here).
//!
//! Exit code 2 for a command line that is not understood (one line names
//! what the experiment reads), 1 for an experiment that could not run.

// A float ordering cannot `unwrap`/`expect` a `partial_cmp` here: the
// non-test build bans both outright (use `f64::total_cmp`).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use more_bench::paper::{claims_table, run, Args, CATALOG};
use std::process::ExitCode;

const USAGE: &str = "usage: paper list | all | <name> [--flag value]...";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Err((code, message)) = dispatch(&argv) else {
        return ExitCode::SUCCESS;
    };
    eprintln!("paper: {message}");
    ExitCode::from(code)
}

fn dispatch(argv: &[String]) -> Result<(), (u8, String)> {
    let usage = |message: String| (2, message);
    let failed = |message: String| (1, message);
    let (command, flags) = argv.split_first().ok_or(usage(USAGE.into()))?;
    let named = CATALOG.iter().find(|exp| exp.name == command);
    match (command.as_str(), named) {
        (_, Some(exp)) => {
            let args = Args::parse(exp, flags).map_err(usage)?;
            run(exp, &args).map_err(failed)?;
        }
        ("list", _) if flags.is_empty() => {
            for exp in &CATALOG {
                println!(
                    "{:<9} {}\n{:<9} {}",
                    exp.source,
                    exp.what,
                    "",
                    exp.command()
                );
            }
        }
        ("all", _) if flags.is_empty() => {
            let mut measured = Vec::new();
            for exp in &CATALOG {
                let defaults = Args::parse(exp, &[]).map_err(usage)?;
                measured.push((exp, run(exp, &defaults).map_err(failed)?));
                println!();
            }
            print!("{}", claims_table(&measured));
        }
        _ => {
            return Err(usage(format!(
                "{:?} is not understood; {USAGE}",
                argv.join(" ")
            )))
        }
    }
    Ok(())
}
