//! The committed baseline of per-lint counts that every ratchet run is
//! compared with.
//!
//! The counts include findings an `#[expect(..)]` suppresses, so clippy
//! can be clean while the ratchet still tracks escape-hatch creep: a new
//! `expect` raises a count and fails the ratchet until the baseline is
//! deliberately re-committed. When counts fall, `ratchet` rewrites the
//! baseline in place so the improvement locks in.
//!
//! The file is a small JSON object with one count per line, so a review
//! diff shows exactly which lint moved:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "counts": { "clippy::indexing_slicing": 408, "unsafe_code": 16 }
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::ErrorKind;
use std::path::Path;

use mesh_topology::json::{self, Value};

/// Name of the committed baseline file at the workspace root.
pub const BASELINE_FILE: &str = "xtask-baseline.json";

/// The committed per-lint counts the ratchet compares against.
#[derive(Debug, PartialEq, Eq)]
pub struct Baseline {
    /// Lint name → count.
    pub counts: BTreeMap<String, usize>,
}

/// One count that moved between the baseline and the current run.
#[derive(Debug, PartialEq, Eq)]
pub struct Delta {
    /// The ratchet key that moved.
    pub key: String,
    /// The committed count.
    pub baseline: usize,
    /// The count this run produced.
    pub current: usize,
}

/// Outcome of comparing current counts against the baseline.
#[derive(Debug, Default)]
pub struct RatchetResult {
    /// Counts that rose — each one fails the ratchet.
    pub rises: Vec<Delta>,
    /// Counts that fell — the baseline should tighten to these.
    pub falls: Vec<Delta>,
}

impl RatchetResult {
    /// No count rose above its baseline.
    pub fn passed(&self) -> bool {
        self.rises.is_empty()
    }
}

impl Baseline {
    /// A baseline holding exactly these counts.
    pub fn new(counts: BTreeMap<String, usize>) -> Self {
        Baseline { counts }
    }

    /// Compares `current` counts against this baseline. Keys absent from
    /// the baseline start at zero (a brand-new lint with findings is a
    /// rise); keys absent from `current` count as zero now (a retired
    /// lint's findings fall away).
    pub fn compare(&self, current: &BTreeMap<String, usize>) -> RatchetResult {
        let mut keys: Vec<&String> = self.counts.keys().chain(current.keys()).collect();
        keys.sort();
        keys.dedup();
        let mut result = RatchetResult::default();
        for key in keys {
            let base = self.counts.get(key).copied().unwrap_or(0);
            let cur = current.get(key).copied().unwrap_or(0);
            let delta = Delta {
                key: key.clone(),
                baseline: base,
                current: cur,
            };
            if cur > base {
                result.rises.push(delta);
            } else if cur < base {
                result.falls.push(delta);
            }
        }
        result
    }

    /// Canonical serialized form — stable key order, one count per line,
    /// so baseline diffs in review show exactly which lint moved.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"counts\": {\n");
        let last = self.counts.len().saturating_sub(1);
        for (i, (key, count)) in self.counts.iter().enumerate() {
            let comma = if i == last { "" } else { "," };
            let _ = writeln!(out, "    \"{key}\": {count}{comma}");
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses the baseline file: string keys mapped to non-negative
    /// integers inside the `"counts"` object.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let Some(Value::Obj(entries)) = doc.get("counts") else {
            return Err("baseline has no \"counts\" object".to_string());
        };
        let mut counts = BTreeMap::new();
        for (key, value) in entries {
            let count = value
                .as_f64()
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .ok_or_else(|| format!("`{key}` is not a non-negative integer count"))?;
            if counts.insert(key.clone(), count as usize).is_some() {
                return Err(format!("duplicate counts key `{key}`"));
            }
        }
        Ok(Baseline { counts })
    }
}

/// What one ratchet run concluded.
#[derive(Debug)]
pub struct Verdict {
    /// Whether the run passes.
    pub passed: bool,
    /// One line per count that moved, then the conclusion.
    pub lines: Vec<String>,
}

/// Compares `current` with the baseline at `path`. The file is written
/// when it is missing or looser than `current`; under `check` it is only
/// read, and a missing file or any fall fails too. An `Err` is a file
/// that cannot be read, parsed or written.
pub fn ratchet(
    path: &Path,
    current: BTreeMap<String, usize>,
    check: bool,
) -> Result<Verdict, String> {
    let shown = path.display();
    let current = Baseline::new(current);
    let write = |what: &str| {
        fs::write(path, current.render())
            .map(|()| format!("xtask ratchet: baseline {what} at {shown}"))
            .map_err(|e| format!("cannot write {shown}: {e}"))
    };
    let verdict = |passed, lines| Ok(Verdict { passed, lines });
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound && check => {
            let line =
                format!("xtask ratchet: no baseline at {shown} (run without --check to create it)");
            return verdict(false, vec![line]);
        }
        Err(e) if e.kind() == ErrorKind::NotFound => {
            return verdict(true, vec![write("initialized")?]);
        }
        Err(e) => return Err(format!("cannot read {shown}: {e}")),
    };
    let baseline = Baseline::parse(&text).map_err(|e| format!("malformed {shown}: {e}"))?;
    let result = baseline.compare(&current.counts);
    let moved = |d: &Delta, verb| {
        let (key, from, to) = (&d.key, d.baseline, d.current);
        format!("xtask ratchet: `{key}` {verb} {from} -> {to}")
    };
    let mut lines: Vec<String> = result
        .rises
        .iter()
        .map(|d| moved(d, "rose") + " (fix the regression or re-justify the baseline in review)")
        .chain(result.falls.iter().map(|d| moved(d, "fell")))
        .collect();
    let passed = if !result.passed() {
        false
    } else if result.falls.is_empty() {
        lines.push(format!(
            "xtask ratchet: ok ({} counts at baseline)",
            baseline.counts.len()
        ));
        true
    } else if check {
        lines.push(
            "xtask ratchet: baseline looser than the tree: run \
             `cargo run -p xtask -- ratchet` and commit"
                .to_string(),
        );
        false
    } else {
        lines.push(write("tightened")?);
        true
    };
    verdict(passed, lines)
}

#[cfg(test)]
mod test {
    use super::*;

    fn counts(pairs: &[(&str, usize)]) -> BTreeMap<String, usize> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn render_parse_round_trip() {
        let b = Baseline::new(counts(&[("clippy::panic", 12), ("unsafe_code", 19)]));
        let parsed = Baseline::parse(&b.render()).expect("round trip");
        assert_eq!(parsed, b);
    }

    #[test]
    fn parse_tolerates_whitespace() {
        let b = Baseline::parse("{\"schema\":1,\"counts\":{\"a\":1,  \"b\" : 2 }}").unwrap();
        assert_eq!(b.counts, counts(&[("a", 1), ("b", 2)]));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"counts\": {\"a\": -1}}").is_err());
        assert!(Baseline::parse("{\"counts\": {\"a\": 1, \"a\": 2}}").is_err());
    }

    #[test]
    fn rises_fail_falls_tighten() {
        let b = Baseline::new(counts(&[("clippy::panic", 5), ("unsafe_code", 2)]));
        let r = b.compare(&counts(&[("clippy::panic", 6), ("unsafe_code", 1)]));
        assert!(!r.passed());
        assert_eq!(r.rises.len(), 1);
        assert_eq!(r.rises[0].key, "clippy::panic");
        assert_eq!(r.falls.len(), 1);
        assert_eq!(r.falls[0].key, "unsafe_code");
    }

    #[test]
    fn new_keys_count_from_zero() {
        let b = Baseline::new(counts(&[]));
        let r = b.compare(&counts(&[("clippy::todo", 1)]));
        assert_eq!(r.rises.len(), 1);
        let r2 = Baseline::new(counts(&[("gone", 3)])).compare(&counts(&[]));
        assert!(r2.passed());
        assert_eq!(r2.falls.len(), 1);
    }
}
