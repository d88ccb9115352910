//! The one best-window timer behind every `bench_*` figure.
//!
//! A figure is the **fastest** of many short timing windows covering at
//! least [`MIN_WALL_S`] of wall time (and at least [`MIN_WINDOWS`]
//! windows): the minimum-time estimator reports a kernel's actual cost
//! and discards scheduler preemption and noisy-neighbor stalls, which
//! on shared hosts can inflate a single-window mean by 2-4x.

use std::time::Instant;

/// Minimum total wall time per measurement, seconds.
pub const MIN_WALL_S: f64 = 0.3;

/// Minimum number of timed windows per measurement.
pub const MIN_WINDOWS: usize = 4;

/// The outcome of one [`best_window`] measurement.
#[derive(Debug, Clone, Copy)]
pub struct BestWindow {
    /// Wall time of the fastest timed window, seconds (floored at
    /// 1 ps so rates derived from it stay finite).
    pub best_s: f64,
    /// How many windows were timed.
    pub windows: usize,
}

/// Times `timed(state)` in repeated windows until at least
/// [`MIN_WALL_S`] of wall time and [`MIN_WINDOWS`] windows have passed,
/// and returns the fastest window. `setup(state)` runs before every
/// window, outside the timed region (resetting a converter, say); it
/// counts toward the wall-time budget but never toward a window.
pub fn best_window<S>(
    state: &mut S,
    mut setup: impl FnMut(&mut S),
    mut timed: impl FnMut(&mut S),
) -> BestWindow {
    let mut windows = 0usize;
    let mut best_s = f64::INFINITY;
    let start = Instant::now();
    while windows < MIN_WINDOWS || start.elapsed().as_secs_f64() < MIN_WALL_S {
        setup(state);
        let window = Instant::now();
        timed(state);
        best_s = best_s.min(window.elapsed().as_secs_f64());
        windows += 1;
    }
    BestWindow {
        best_s: best_s.max(1e-12),
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn slow_setup_stays_out_of_the_best_window() {
        let mut setups = 0usize;
        let best = best_window(
            &mut setups,
            |n| {
                *n += 1;
                std::thread::sleep(Duration::from_millis(5));
            },
            |n| assert!(*n > 0, "setup runs before its window"),
        );
        assert!(best.windows >= MIN_WINDOWS);
        assert_eq!(setups, best.windows, "one setup per window");
        assert!(
            best.best_s < 0.004,
            "the 5 ms setup leaked into the window: {} s",
            best.best_s
        );
    }

    #[test]
    fn at_least_four_windows_run_even_when_one_window_is_slow() {
        // Two 0.16 s windows already exceed the wall-time budget; the
        // window count alone keeps the timer going to four.
        let best = best_window(
            &mut (),
            |_| {},
            |_| {
                std::thread::sleep(Duration::from_millis(160));
            },
        );
        assert_eq!(best.windows, MIN_WINDOWS);
        assert!(best.best_s >= 0.16);
    }
}
