//! The catalog of the paper's experiments runs, and the claims table it
//! ends in is pinned.
//!
//! Every entry of `more_bench::paper::CATALOG` runs at its default flags
//! — what `paper all` does — every claim must measure a finite value,
//! and the resulting paper-vs-here table must equal
//! `tests/golden/paper_claims.txt`. This is not a fidelity gate: no
//! measured value is compared with the paper's. It makes a change that
//! moves a headline number show that number in its diff.
//!
//! Regenerate (after an *intentional* change) with
//! `UPDATE_GOLDEN=1 cargo test --test paper_catalog`.

use more_bench::paper::{claims_table, run, Args, CATALOG};

#[test]
fn every_experiment_runs_and_the_claims_table_matches_the_golden() {
    let mut measured = Vec::new();
    for exp in &CATALOG {
        let defaults = Args::parse(exp, &[]).expect("catalog defaults parse");
        let here = run(exp, &defaults).unwrap_or_else(|e| panic!("{}: {e}", exp.name));
        assert_eq!(here.len(), exp.claims.len(), "{}: empty grid", exp.name);
        for (claim, value) in exp.claims.iter().zip(&here) {
            assert!(value.is_finite(), "{}: {} = {value}", exp.name, claim.name);
        }
        measured.push((exp, here));
    }
    let actual = claims_table(&measured);

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = format!(
            "{}/tests/golden/paper_claims.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::write(&path, &actual).expect("write golden");
        eprintln!("updated {path}");
        return;
    }
    assert_eq!(
        actual,
        include_str!("golden/paper_claims.txt"),
        "the claims table moved — if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test paper_catalog and update REPRODUCTION.md"
    );
}
