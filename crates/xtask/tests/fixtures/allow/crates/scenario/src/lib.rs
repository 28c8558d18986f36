//! Allowlist fixture: violations like the bad tree's, each suppressed
//! by a justified `// xtask: allow` comment — plus one unused allow
//! that must surface in the report as UNUSED.

// xtask: allow(missing_forbid) -- fixture exercising root-level allows

pub fn float_sort(v: &mut [f64]) {
    // xtask: allow(float_ord) -- inputs validated finite by caller
    v.sort_by(|a, b| a.partial_cmp(b).unwrap()); // xtask: allow(panic_path) -- comparator unwrap on inputs the float_ord allow already validates
}

// xtask: allow(rng_stream) -- this allow is deliberately unused

pub fn replay_stream() {
    // xtask: allow(rng_stream) -- fixed replay stream, never part of a run
    let _ = ChaCha8Rng::seed_from_u64(7);
}
