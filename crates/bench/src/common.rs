//! Shared CLI plumbing for the figure binaries.

use std::collections::HashMap;

/// Tiny `--key value` argument parser (no external deps).
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()`. A `--flag` followed by another
    /// `--option` (or nothing) is a bare switch and reads as `"true"`.
    pub fn parse() -> Self {
        let mut map = HashMap::new();
        let mut args = std::env::args().skip(1).peekable();
        while let Some(a) = args.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match args.peek() {
                    Some(v) if !v.starts_with("--") => args.next().expect("peeked value"),
                    _ => "true".into(),
                };
                map.insert(key.to_string(), value);
            }
        }
        Args { map }
    }

    /// Typed lookup with default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.map
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Standard figure banner.
pub fn banner(fig: &str, what: &str) {
    println!("==================================================================");
    println!("{fig}: {what}");
    println!("==================================================================");
}
