//! Session execution strategies.
//!
//! The day loop is generic over *how* one user session runs. [`VmRunner`]
//! is the real thing: fork a VM session from a shared [`SessionPool`]
//! snapshot, drive the user's events, and read the telemetry back.
//! [`SyntheticRunner`] is a closed-form stand-in — outcomes drawn straight
//! from the per-bomb trigger probabilities — used by property tests and
//! benchmarks that need population-scale session counts without VM cost.

use crate::engine::BombCatalog;
use bombdroid_core::TaskCtx;
use bombdroid_corpus::UserProfile;
use bombdroid_runtime::{run_session, SessionPool, UserEventSource};
use rand::Rng;

/// What one simulated user session contributes to the day's aggregation.
/// Compact and `Send`: these flow back from fleet workers in index order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutcome {
    /// Whether any detection response fired during the session.
    pub detected: bool,
    /// Piracy reports this device sent to the developer.
    pub reports: u64,
    /// Review the user posted, in milli-stars (1000..5000).
    pub rating_milli: u32,
    /// Minutes into the session the first bomb fired, if any.
    pub first_marker_min: Option<u16>,
    /// Marker ids of bombs that fired (inner trigger held).
    pub markers: Vec<u32>,
    /// Blob ids decrypted (outer trigger satisfied).
    pub blobs: Vec<u32>,
}

/// Draws the review a user posts: detection degrades the app, so detected
/// sessions rate 1.0–2.5 stars, clean ones 3.5–5.0 (milli-star integers).
pub fn draw_rating_milli(detected: bool, rng: &mut impl Rng) -> u32 {
    if detected {
        rng.gen_range(1_000..2_500u32)
    } else {
        rng.gen_range(3_500..5_000u32)
    }
}

/// Runs one user's session. Implementations must be deterministic in
/// `(user, ctx)`: the fleet engine may run sessions in any physical order
/// and the simulator's bit-reproducibility guarantee rests on it.
pub trait SessionRunner: Sync {
    /// Executes the session for `user` under the fleet task context.
    fn run(&self, user: &UserProfile, ctx: TaskCtx) -> SessionOutcome;
}

/// The real runner: forks a VM session per user from a shared pre-decoded
/// snapshot pool and reads outcomes from telemetry.
pub struct VmRunner {
    /// Shared pristine session pool for the (pirated) package under test.
    pub pool: SessionPool,
    /// Optional cap on session length, for fast smoke configurations.
    pub cap_minutes: Option<u16>,
}

impl VmRunner {
    /// Wraps a session pool with no session cap.
    pub fn new(pool: SessionPool) -> Self {
        VmRunner {
            pool,
            cap_minutes: None,
        }
    }
}

impl SessionRunner for VmRunner {
    fn run(&self, user: &UserProfile, ctx: TaskCtx) -> SessionOutcome {
        let mut urng = ctx.rng();
        let env = user.device.materialize();
        let mut vm = self.pool.session(env, ctx.seed);
        let mut source = UserEventSource::new(&vm.pkg);
        let minutes = match self.cap_minutes {
            Some(cap) => user.session_minutes.min(cap),
            None => user.session_minutes,
        };
        run_session(
            &mut vm,
            &mut source,
            &mut urng,
            u64::from(minutes),
            u64::from(user.events_per_minute),
        );
        vm.publish_obs();
        let t = vm.telemetry();
        let detected = t.detection_fired();
        SessionOutcome {
            detected,
            reports: t.piracy_reports,
            rating_milli: draw_rating_milli(detected, &mut urng),
            first_marker_min: t.first_marker_ms.map(|ms| (ms / 60_000) as u16),
            markers: t.markers.iter().copied().collect(),
            blobs: t.blobs_decrypted.iter().copied().collect(),
        }
    }
}

/// Closed-form runner: each bomb's outer trigger is satisfied with a fixed
/// probability and, given that, its inner trigger holds with the bomb's
/// predicted probability. Lets tests and benchmarks push millions of
/// sessions through the full day-loop/checkpoint machinery in microseconds
/// per session.
#[derive(Debug, Clone)]
pub struct SyntheticRunner {
    /// Bombs to emulate (marker, blob, predicted inner probability).
    pub catalog: BombCatalog,
    /// Probability (ppm) a session satisfies each bomb's outer trigger.
    pub outer_ppm: u32,
    /// Piracy reports sent per fired bomb.
    pub reports_per_fire: u64,
}

impl SyntheticRunner {
    /// Emulates `catalog` with an 80% outer-trigger rate and one report
    /// per fired bomb.
    pub fn new(catalog: BombCatalog) -> Self {
        SyntheticRunner {
            catalog,
            outer_ppm: 800_000,
            reports_per_fire: 1,
        }
    }
}

impl SessionRunner for SyntheticRunner {
    fn run(&self, user: &UserProfile, ctx: TaskCtx) -> SessionOutcome {
        let mut rng = ctx.rng();
        let mut markers = Vec::new();
        let mut blobs = Vec::new();
        for bomb in self.catalog.entries() {
            if rng.gen_range(0..1_000_000u32) >= self.outer_ppm {
                continue;
            }
            blobs.push(bomb.blob);
            if u64::from(rng.gen_range(0..1_000_000u32)) < bomb.predicted_ppm {
                markers.push(bomb.marker);
            }
        }
        let detected = !markers.is_empty();
        let first_marker_min = if detected {
            Some(rng.gen_range(0..u32::from(user.session_minutes.max(1))) as u16)
        } else {
            None
        };
        SessionOutcome {
            detected,
            reports: markers.len() as u64 * self.reports_per_fire,
            rating_milli: draw_rating_milli(detected, &mut rng),
            first_marker_min,
            markers,
            blobs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BombEntry;
    use crate::population::DevicePopulation;
    use bombdroid_core::derive_seed;

    fn ctx(index: usize) -> TaskCtx {
        TaskCtx {
            index,
            seed: derive_seed(5, index as u64),
        }
    }

    #[test]
    fn synthetic_runner_is_deterministic_and_tracks_probability() {
        let catalog = BombCatalog::new(vec![BombEntry {
            marker: 9,
            blob: 2,
            predicted_ppm: 150_000,
        }]);
        let runner = SyntheticRunner::new(catalog);
        let pop = DevicePopulation::new(3, 20_000);
        let a = runner.run(&pop.user(17), ctx(17));
        let b = runner.run(&pop.user(17), ctx(17));
        assert_eq!(a, b);

        let mut outer = 0u64;
        let mut fired = 0u64;
        for i in 0..pop.size {
            let o = runner.run(&pop.user(i), ctx(i));
            if o.blobs.contains(&2) {
                outer += 1;
            }
            if o.markers.contains(&9) {
                fired += 1;
                assert!(o.detected && o.first_marker_min.is_some());
            }
        }
        let measured = fired as f64 / outer as f64;
        assert!((measured - 0.15).abs() < 0.02, "measured {measured}");
    }
}
