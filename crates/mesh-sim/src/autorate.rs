//! Onoe-style automatic bit-rate selection (§4.4).
//!
//! The MadWifi driver's Onoe algorithm is credit-based and deliberately
//! sluggish: over a fixed observation window it counts how many
//! transmissions needed retries; a clean window earns a credit, enough
//! credits raise the rate, while a retry-heavy window drops it at once.
//! That conservatism is exactly what the paper observes going wrong —
//! interference-driven losses look like rate problems, so Onoe parks
//! challenged links at 1 Mb/s where each frame occupies ~10× the airtime
//! (§4.4: "on average 23% of all transmissions using autorate are done at
//! the lowest bit-rate … these transmissions form a throughput
//! bottleneck").
//!
//! One [`OnoeAutorate`] instance tracks one (sender, next-hop) pair; Srcr
//! keeps one per link it uses.

use crate::{Bitrate, Time};

/// Observation window length, µs (MadWifi: 1 s). This and the thresholds
/// below mirror MadWifi's defaults in spirit.
const WINDOW: Time = crate::SEC;

/// Credits needed to try the next rate up (MadWifi: 10).
const RAISE_CREDITS: u32 = 10;

/// A window whose retry fraction exceeds this drops the rate.
const DROP_RETRY_FRACTION: f64 = 0.5;

/// A window is "clean" (earns a credit) below this retry fraction.
const CLEAN_RETRY_FRACTION: f64 = 0.1;

/// Per-link Onoe state machine.
#[derive(Clone, Debug)]
#[must_use]
pub struct OnoeAutorate {
    rate: Bitrate,
    credits: u32,
    window_start: Time,
    frames: u32,
    retried_frames: u32,
    failures: u32,
}

impl OnoeAutorate {
    /// Starts at the given rate (MadWifi starts high and backs off).
    pub fn new(initial: Bitrate) -> Self {
        OnoeAutorate {
            rate: initial,
            credits: 0,
            window_start: 0,
            frames: 0,
            retried_frames: 0,
            failures: 0,
        }
    }

    /// The rate to use for the next frame.
    pub fn rate(&self) -> Bitrate {
        self.rate
    }

    /// Records a completed transmission: `retries` retransmissions were
    /// needed, `failed` if the MAC gave up. Call with the simulation clock;
    /// window rollover happens here.
    pub fn record(&mut self, now: Time, retries: u32, failed: bool) {
        self.maybe_roll(now);
        self.frames += 1;
        if retries > 0 {
            self.retried_frames += 1;
        }
        if failed {
            self.failures += 1;
        }
    }

    fn maybe_roll(&mut self, now: Time) {
        if now < self.window_start + WINDOW {
            return;
        }
        if self.frames > 0 {
            let retry_frac = self.retried_frames as f64 / self.frames as f64;
            if retry_frac > DROP_RETRY_FRACTION || self.failures > 0 {
                if let Some(down) = self.rate.down() {
                    self.rate = down;
                }
                self.credits = 0;
            } else if retry_frac < CLEAN_RETRY_FRACTION {
                self.credits += 1;
                if self.credits >= RAISE_CREDITS {
                    if let Some(up) = self.rate.up() {
                        self.rate = up;
                    }
                    self.credits = 0;
                }
            } else {
                self.credits = self.credits.saturating_sub(1);
            }
        }
        self.window_start = now;
        self.frames = 0;
        self.retried_frames = 0;
        self.failures = 0;
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::SEC;

    fn onoe() -> OnoeAutorate {
        OnoeAutorate::new(Bitrate::B11)
    }

    #[test]
    fn stays_put_on_clean_traffic_until_credits_accumulate() {
        let mut a = OnoeAutorate::new(Bitrate::B5_5);
        // 9 clean windows: still 5.5 (needs 10 credits).
        for w in 0..9u64 {
            for _ in 0..50 {
                a.record(w * SEC + 1, 0, false);
            }
            a.record((w + 1) * SEC, 0, false);
        }
        assert_eq!(a.rate(), Bitrate::B5_5);
        // A 10th clean window raises to 11.
        for _ in 0..50 {
            a.record(9 * SEC + 500_000, 0, false);
        }
        a.record(10 * SEC, 0, false);
        assert_eq!(a.rate(), Bitrate::B11);
    }

    #[test]
    fn drops_rate_under_retry_pressure() {
        let mut a = onoe();
        for _ in 0..50 {
            a.record(1, 3, false);
        }
        a.record(SEC, 1, false); // roll the window
        assert_eq!(a.rate(), Bitrate::B5_5);
    }

    #[test]
    fn failure_forces_drop() {
        let mut a = onoe();
        for _ in 0..100 {
            a.record(1, 0, false);
        }
        a.record(2, 7, true);
        a.record(SEC, 0, false);
        assert_eq!(a.rate(), Bitrate::B5_5);
    }

    #[test]
    fn can_sink_to_lowest_rate_and_stay() {
        let mut a = onoe();
        for w in 0..5u64 {
            for _ in 0..20 {
                a.record(w * SEC + 1, 4, false);
            }
            a.record((w + 1) * SEC, 4, false);
        }
        assert_eq!(a.rate(), Bitrate::B1);
        // Further pressure cannot go below 1 Mb/s.
        for _ in 0..20 {
            a.record(6 * SEC + 1, 4, false);
        }
        a.record(7 * SEC, 4, false);
        assert_eq!(a.rate(), Bitrate::B1);
    }

    #[test]
    fn interference_lookalike_loss_parks_it_low() {
        // The §4.4 pathology: losses that no rate change can fix keep the
        // retry fraction high at every rate, so Onoe ends up at the bottom.
        let mut a = onoe();
        for w in 0..20u64 {
            for _ in 0..30 {
                a.record(w * SEC + 1, 2, false);
            }
            a.record((w + 1) * SEC, 2, false);
        }
        assert_eq!(a.rate(), Bitrate::B1);
    }

    #[test]
    fn empty_windows_change_nothing() {
        let mut a = onoe();
        a.record(10 * SEC, 0, false);
        assert_eq!(a.rate(), Bitrate::B11);
    }
}
