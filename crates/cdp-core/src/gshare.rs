//! A gshare branch predictor (Table 1: 16 K-entry).
//!
//! Global history XORed with the branch PC indexes a table of 2-bit
//! saturating counters. The simulator consults the predictor at fetch and
//! charges the 28-cycle redirect penalty when the prediction disagrees
//! with the trace's recorded outcome.

/// The gshare predictor.
///
/// # Examples
///
/// ```
/// use cdp_core::Gshare;
///
/// let mut bp = Gshare::new(14); // 16K entries
/// // An always-taken branch becomes predictable once the global history
/// // register saturates (14 shifts) and the pinned counter trains.
/// let pc = 0x400;
/// for _ in 0..40 {
///     let pred = bp.predict(pc);
///     bp.update(pc, pred, true);
/// }
/// assert!(bp.predict(pc));
/// ```
#[derive(Clone, Debug)]
pub struct Gshare {
    counters: Vec<u8>,
    history: u32,
    mask: u32,
}

impl Gshare {
    /// Creates a predictor with `2^log2_entries` 2-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `log2_entries` is 0 or greater than 24.
    pub fn new(log2_entries: u32) -> Self {
        assert!(
            (1..=24).contains(&log2_entries),
            "gshare size out of range: {log2_entries}"
        );
        Gshare {
            counters: vec![1; 1 << log2_entries], // weakly not-taken
            history: 0,
            mask: (1 << log2_entries) - 1,
        }
    }

    /// Table entries.
    pub fn entries(&self) -> usize {
        self.counters.len()
    }

    #[inline]
    fn index(&self, pc: u32) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc` with the current
    /// global history.
    #[inline]
    pub fn predict(&self, pc: u32) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Updates the counter for `pc` with the actual `outcome` and shifts
    /// the global history. `predicted` is accepted for symmetry with
    /// hardware interfaces that repair history on mispredicts; this model
    /// updates history with the actual outcome (trace-driven fetch always
    /// resumes on the correct path).
    #[inline]
    pub fn update(&mut self, pc: u32, _predicted: bool, outcome: bool) {
        let idx = self.index(pc);
        let c = &mut self.counters[idx];
        if outcome {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = ((self.history << 1) | outcome as u32) & self.mask;
    }

    /// Serializes the predictor state (history register + counter table).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u32(self.history);
        enc.bytes(&self.counters);
    }

    /// Restores state written by [`Gshare::save_state`] into a predictor
    /// of the same geometry.
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation, a
    /// counter-table size mismatch, or a counter value outside 0..=3.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        let history = dec.u32("gshare history")?;
        let counters = dec.bytes("gshare counters")?;
        if counters.len() != self.counters.len() {
            return Err(cdp_types::SnapshotError::Corrupt {
                context: "gshare table size",
            });
        }
        if counters.iter().any(|&c| c > 3) {
            return Err(cdp_types::SnapshotError::Corrupt {
                context: "gshare counter value",
            });
        }
        self.history = history & self.mask;
        self.counters.copy_from_slice(counters);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branch() {
        let mut bp = Gshare::new(10);
        let mut wrong = 0;
        for _ in 0..100 {
            let p = bp.predict(0x40);
            if !p {
                wrong += 1;
            }
            bp.update(0x40, p, true);
        }
        // The first ~10 updates churn the history register (each touching a
        // fresh counter); once history saturates the branch is perfect.
        assert!(wrong <= 15, "always-taken should be learned: {wrong}");
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut bp = Gshare::new(12);
        let mut wrong = 0;
        for i in 0..200u32 {
            let outcome = i % 2 == 0;
            let p = bp.predict(0x80);
            if p != outcome {
                wrong += 1;
            }
            bp.update(0x80, p, outcome);
        }
        // After warm-up the alternation is captured by history bits.
        assert!(wrong < 30, "alternating pattern should train: {wrong}");
    }

    #[test]
    fn random_branches_mispredict_often() {
        // A PRNG-driven branch cannot be predicted: expect ~50% error.
        let mut bp = Gshare::new(14);
        let mut x = 0x12345678u64;
        let mut wrong = 0;
        let n = 2000;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let outcome = (x >> 63) == 1;
            let p = bp.predict(0x100);
            if p != outcome {
                wrong += 1;
            }
            bp.update(0x100, p, outcome);
        }
        let rate = wrong as f64 / n as f64;
        assert!(
            (0.3..0.7).contains(&rate),
            "random branch misprediction rate ~50%, got {rate}"
        );
    }

    #[test]
    fn stable_history_pins_the_counter() {
        let mut bp = Gshare::new(14);
        // 40 updates: history saturates to all-ones after 14, then the
        // same counter trains to strongly-taken.
        for _ in 0..40 {
            let p = bp.predict(0x40);
            bp.update(0x40, p, true);
        }
        assert!(bp.predict(0x40));
    }

    #[test]
    #[should_panic(expected = "gshare size out of range")]
    fn zero_size_panics() {
        let _ = Gshare::new(0);
    }
}
