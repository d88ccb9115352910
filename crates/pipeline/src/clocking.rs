//! Clocking schemes and the per-stage timing budget.
//!
//! A conventional pipeline uses two-phase *non-overlapping* clocks so S2
//! can never close before S1 opens; the non-overlap margin is dead time
//! taken from settling. The paper removes it: "the non-overlap clocking
//! is removed and the sequential operation of the switches is ensured by
//! generating these clocks locally in each stage" (§3, Fig. 3 context).
//! Longer settling time ⇒ the opamp gain-bandwidth (and therefore bias
//! current and power) can be reduced at the same accuracy — one of the
//! paper's power levers, and ablation B in `DESIGN.md`.

/// How the two-phase stage clocks are produced.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize, Default)]
pub enum ClockScheme {
    /// The paper's scheme: clocks generated locally in each stage; switch
    /// sequencing is by construction, no dead time.
    #[default]
    LocalGenerated,
    /// Conventional global non-overlapping clocks with the given margin
    /// (dead time per phase), seconds.
    NonOverlap {
        /// Non-overlap (dead-time) margin per phase, seconds.
        margin_s: f64,
    },
}

impl ClockScheme {
    /// A typical conventional margin for a ~100 MS/s design: 500 ps.
    pub fn conventional() -> Self {
        ClockScheme::NonOverlap { margin_s: 500e-12 }
    }

    /// Dead time this scheme spends per phase, seconds.
    pub fn dead_time_s(&self) -> f64 {
        match self {
            ClockScheme::LocalGenerated => 0.0,
            ClockScheme::NonOverlap { margin_s } => *margin_s,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ClockScheme::LocalGenerated => "local clocks (no non-overlap)",
            ClockScheme::NonOverlap { .. } => "global non-overlap clocks",
        }
    }
}

/// The per-phase timing budget at a conversion rate.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimingBudget {
    /// Clock period, seconds.
    pub period_s: f64,
    /// Time available for MDAC settling after clocking overheads and the
    /// ADSC + decoder (DSB) decision delay, seconds. May be ≤ 0 at
    /// excessive rates — the converter refuses to build then.
    pub settle_time_s: f64,
    /// Time available for input tracking, seconds.
    pub track_time_s: f64,
}

impl TimingBudget {
    /// Computes the budget.
    ///
    /// * `f_cr_hz` — conversion rate;
    /// * `scheme` — clocking scheme;
    /// * `logic_delay_s` — fixed ADSC comparator + DSB decode delay that
    ///   must elapse before the references are applied and true settling
    ///   starts. This *fixed* term is what eventually breaks the paper's
    ///   rate-independence above ≈140 MS/s.
    ///
    /// # Panics
    ///
    /// Panics if `f_cr_hz` is not positive.
    pub fn at(f_cr_hz: f64, scheme: ClockScheme, logic_delay_s: f64) -> Self {
        assert!(f_cr_hz > 0.0, "conversion rate must be positive");
        let period_s = 1.0 / f_cr_hz;
        let half = period_s / 2.0;
        let dead = scheme.dead_time_s();
        TimingBudget {
            period_s,
            settle_time_s: half - dead - logic_delay_s,
            track_time_s: half - dead,
        }
    }

    /// Fraction of the period spent tracking (for the sampling network).
    pub fn track_fraction(&self) -> f64 {
        (self.track_time_s / self.period_s).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_clocks_have_no_dead_time() {
        assert_eq!(ClockScheme::LocalGenerated.dead_time_s(), 0.0);
        assert_eq!(ClockScheme::conventional().dead_time_s(), 500e-12);
    }

    #[test]
    fn budget_at_110ms() {
        let b = TimingBudget::at(110e6, ClockScheme::LocalGenerated, 1e-9);
        assert!((b.period_s - 9.0909e-9).abs() < 1e-13);
        // half period 4.545 ns − 1 ns logic = 3.545 ns
        assert!((b.settle_time_s - 3.5454e-9).abs() < 1e-12);
        assert!((b.track_time_s - 4.5454e-9).abs() < 1e-12);
    }

    #[test]
    fn non_overlap_steals_settling_time() {
        let local = TimingBudget::at(110e6, ClockScheme::LocalGenerated, 1e-9);
        let conv = TimingBudget::at(110e6, ClockScheme::conventional(), 1e-9);
        assert!((local.settle_time_s - conv.settle_time_s - 500e-12).abs() < 1e-15);
        assert!(local.track_time_s > conv.track_time_s);
    }

    #[test]
    fn budget_goes_negative_at_excessive_rate() {
        // Half period at 600 MS/s is 0.83 ns < 1 ns logic delay.
        let b = TimingBudget::at(600e6, ClockScheme::LocalGenerated, 1e-9);
        assert!(b.settle_time_s < 0.0);
    }

    #[test]
    fn track_fraction_is_half_for_local_clocks() {
        let b = TimingBudget::at(50e6, ClockScheme::LocalGenerated, 1e-9);
        assert!((b.track_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn labels_differ() {
        assert_ne!(
            ClockScheme::LocalGenerated.label(),
            ClockScheme::conventional().label()
        );
    }
}
