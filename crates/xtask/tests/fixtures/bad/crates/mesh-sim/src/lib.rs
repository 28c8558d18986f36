//! Deliberately-bad fixture: every line-based determinism lint plus an
//! undocumented unsafe block, with a #[cfg(test)] negative control.
//! (No #![forbid(unsafe_code)] here — that is the missing_forbid case.)

pub fn unnamed_stream(seed: u64, k: u64) {
    let _ = ChaCha8Rng::seed_from_u64(seed ^ k.wrapping_mul(0x9E3779B97F4A7C15));
}

pub fn named_stream_is_fine(seed: u64) {
    let _ = ChaCha8Rng::seed_from_u64(seed ^ CHANNEL_STREAM);
}

pub fn float_sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

pub fn float_sort_multiline(v: &mut [f64]) {
    v.sort_by(|a, b| {
        a.partial_cmp(b)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

pub fn undocumented(p: *const u8) -> u8 {
    unsafe { *p }
}

#[cfg(test)]
mod test {
    #[test]
    fn tests_may_use_literal_seeds() {
        let _ = ChaCha8Rng::seed_from_u64(12345);
        let mut v = [2.0f64, 1.0];
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
}

pub fn unnamed_batch_streams(seed: u64, k: u64) {
    let _ = ChaCha8Rng::seed_eight_from_u64([seed ^ k; 8]);
}
