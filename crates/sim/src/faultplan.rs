//! The seeded disk-outage schedule behind `reproduce faults`.
//!
//! A [`FaultPlan`] turns `(total_frames, seed)` into one deterministic
//! outage window: the disk dies just before frame `kill_frame` is journaled
//! and heals just before frame `heal_frame`. Deriving the window from the
//! seed (instead of hard-coding it) keeps the fault workload honest — the
//! requirement is that the seeded fsync-kill is reproducible from
//! the seed alone, so the schedule must be a pure function of it. The same
//! SplitMix64 mixer as the journal's own fault scheduler is used, so one
//! seed word drives both layers identically across runs.

/// One deterministic disk-outage window over a frame schedule.
///
/// Invariants (guaranteed by [`FaultPlan::derive`] for `total_frames >= 8`):
/// `0 < kill_frame < heal_frame < total_frames`, so every run has a durable
/// prefix, a degraded window, and a durable tail to journal after recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Frame index whose journal append is the first to fail (the disk dies
    /// immediately before this frame is recorded).
    pub kill_frame: u64,
    /// Frame index at which the disk heals (this frame and everything after
    /// it journals again once the probe repairs durability).
    pub heal_frame: u64,
}

impl FaultPlan {
    /// Derives the outage window for a schedule of `total_frames` frames.
    ///
    /// The kill lands in the second quarter of the schedule and the window
    /// spans between one eighth and one quarter of it, clamped so a durable
    /// tail of at least one eighth always remains. Pure in `(total_frames,
    /// seed)`: same inputs, same window, on every machine.
    pub fn derive(total_frames: u64, seed: u64) -> FaultPlan {
        // Fold the schedule length into the mixer state so that nearby
        // lengths land in different windows even when they share the same
        // quarter/eighth buckets below.
        let mut state = seed ^ total_frames.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let eighth = (total_frames / 8).max(1);
        let quarter = (total_frames / 4).max(1);
        let kill_frame = quarter + splitmix64(&mut state) % quarter;
        let window = eighth + splitmix64(&mut state) % eighth;
        let latest_heal = total_frames.saturating_sub(eighth).max(kill_frame + 1);
        let heal_frame = (kill_frame + window).min(latest_heal);
        FaultPlan { kill_frame, heal_frame }
    }

    /// Frames acknowledged inside the outage window (`heal - kill`): the
    /// exact number of applies the server must count as degraded.
    pub fn degraded_frames(&self) -> u64 {
        self.heal_frame - self.kill_frame
    }
}

/// SplitMix64: the statelessly-seedable mixer used across the workspace for
/// schedule derivation (identical constants to the journal's fault seeder).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_a_pure_function_of_frames_and_seed() {
        let a = FaultPlan::derive(1280, 2001);
        let b = FaultPlan::derive(1280, 2001);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::derive(1280, 2002), "seed must matter");
        assert_ne!(a, FaultPlan::derive(1281, 2001), "schedule length must matter");
    }

    #[test]
    fn window_invariants_hold_across_seeds_and_sizes() {
        for total in [8u64, 12, 100, 160, 1280, 99_991] {
            for seed in 0..64u64 {
                let plan = FaultPlan::derive(total, seed);
                assert!(plan.kill_frame > 0, "{total}/{seed}: durable prefix required");
                assert!(plan.kill_frame < plan.heal_frame, "{total}/{seed}: window non-empty");
                assert!(plan.heal_frame < total, "{total}/{seed}: durable tail required");
                assert_eq!(plan.degraded_frames(), plan.heal_frame - plan.kill_frame);
            }
        }
    }
}
