//! Output checking: a digest over what every run of a pass *measured*,
//! plus the per-run validity checks that decide `runs_failed`.
//!
//! The digest is FNV-1a-64 over [`RunRecord`] **fields** in grid order —
//! not over JSON bytes — so a record-format change does not move it, and
//! two commits that simulate the same thing report the same value.

use more_scenario::{RunRecord, RunSink};
use std::io;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Simulated seconds → whole microseconds (the engine's native tick), so
/// the digest never depends on float formatting.
fn micros(seconds: f64) -> u64 {
    (seconds * 1e6).round() as u64
}

/// What one pass over a grid produced, folded record by record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassOutcome {
    /// FNV-1a-64 over the record fields seen so far.
    pub digest: u64,
    /// Simulator runs (one [`RunRecord`] each).
    pub runs: u64,
    /// Runs that broke a validity check.
    pub failed: u64,
    /// Σ `RunRecord::total_tx` — the exact work count of the pass.
    pub total_tx: u64,
}

impl Default for PassOutcome {
    fn default() -> Self {
        PassOutcome {
            digest: FNV_OFFSET,
            runs: 0,
            failed: 0,
            total_tx: 0,
        }
    }
}

impl PassOutcome {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn eat_u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }
}

/// A [`RunSink`] that folds every record into a [`PassOutcome`] and holds
/// nothing — tee'd beside the workload's real sink on the builder path,
/// fed directly by the staged replica.
#[derive(Debug)]
pub struct DigestSink {
    /// Running outcome of the pass.
    pub outcome: PassOutcome,
    packets: usize,
    require_complete: bool,
}

impl DigestSink {
    /// `packets` is the per-flow budget no flow may exceed;
    /// `require_complete` additionally fails runs with an unfinished flow.
    pub fn new(packets: usize, require_complete: bool) -> Self {
        DigestSink {
            outcome: PassOutcome::default(),
            packets,
            require_complete,
        }
    }

    /// Folds one record (the whole of [`RunSink::record`], infallibly).
    pub fn observe(&mut self, r: &RunRecord) {
        let o = &mut self.outcome;
        o.eat(r.protocol.as_bytes());
        o.eat(&[0xff]); // terminator: "ab"+"c" must differ from "a"+"bc"
        o.eat_u64(r.seed);
        o.eat_u64(r.traffic_index as u64);
        o.eat_u64(r.total_tx);
        o.eat_u64(r.queue_drops);
        o.eat_u64(micros(r.sim_time_s));
        o.eat_u64(r.flows.len() as u64);
        let mut ok = true;
        for f in &r.flows {
            o.eat_u64(f.delivered as u64);
            o.eat_u64(u64::from(f.completed));
            // completed_at = 0 is impossible for a real flow, so it can
            // stand for "never".
            o.eat_u64(f.completed_at_s.map_or(0, micros));
            ok &= f.throughput_pps.is_finite()
                && f.delivered <= self.packets
                && (f.completed || !self.require_complete);
        }
        o.runs += 1;
        o.failed += u64::from(!ok);
        o.total_tx += r.total_tx;
    }
}

impl RunSink for DigestSink {
    fn record(&mut self, r: &RunRecord) -> io::Result<()> {
        self.observe(r);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
