//! Resource budgets and the fail-safe degradation ladder.
//!
//! Velodrome is an *online* analysis: the paper's back-end runs inside the
//! monitored program, so unbounded growth of analysis state — the
//! happens-before graph, the per-variable instrumentation store, the
//! recorded replay trace — is unbounded memory growth of the *host*. A
//! production deployment needs two guarantees the original prototype never
//! had to give:
//!
//! 1. the analysis never crashes, deadlocks, or OOMs the host; and
//! 2. any loss of soundness is explicit, never silent.
//!
//! [`ResourceBudget`] caps the three unbounded resources; when a cap trips,
//! the runtime steps down the [`DegradationLevel`] ladder instead of
//! growing further. Every transition is counted in telemetry and surfaced
//! as a [`WarningCategory::Degraded`](crate::tool::WarningCategory::Degraded)
//! warning carrying the event index at which fidelity was lost, so a capped
//! run is always distinguishable from a clean one.

use serde::Serialize;
use std::fmt;

/// Hard caps on the analysis' unbounded resources. A field of `0` means
/// *unlimited* — the default budget caps nothing, so enabling the budget
/// machinery is always opt-in and the default configuration is
/// byte-identical to an unbudgeted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceBudget {
    /// Cap on simultaneously-alive transaction nodes in the happens-before
    /// graph. First trip quarantines the hottest variables; a trip while
    /// already quarantined degrades to recorder-only.
    pub max_alive_nodes: usize,
    /// Cap on events retained in the replay trace. Tripping stops trace
    /// retention (analysis continues).
    pub max_trace_events: usize,
    /// Cap on distinct shared variables tracked by the instrumentation
    /// store. Tripping quarantines the hottest variables from
    /// happens-before edge creation.
    pub max_tracked_vars: usize,
}

impl ResourceBudget {
    /// The default budget: nothing is capped.
    pub const UNLIMITED: Self = Self {
        max_alive_nodes: 0,
        max_trace_events: 0,
        max_tracked_vars: 0,
    };

    /// Returns `true` when no cap is set (the default).
    pub fn is_unlimited(&self) -> bool {
        *self == Self::UNLIMITED
    }
}

/// The explicit degradation ladder, ordered from full fidelity down to
/// recorder-only operation. Transitions are monotonic: a runtime or engine
/// only ever steps *down* (to a larger variant), and each step is counted
/// and surfaced as a `Degraded` warning.
///
/// What each state still guarantees:
///
/// * [`Full`](Self::Full) — sound and complete; the replay trace is
///   retained.
/// * [`TraceDropped`](Self::TraceDropped) — sound and complete analysis,
///   but events past the budget are no longer retained for replay.
/// * [`VarQuarantine`](Self::VarQuarantine) — the hottest variables are
///   excluded from happens-before edge creation: still sound and complete
///   *for the remaining variables*; violations involving only quarantined
///   variables may be missed (completeness loss), and no false alarms are
///   introduced (edges are only removed, never invented).
/// * [`RecorderOnly`](Self::RecorderOnly) — no online analysis at all;
///   events are still observed/recorded. Entered on analysis panic or when
///   quarantining failed to relieve memory pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum DegradationLevel {
    /// Full analysis; everything retained.
    #[default]
    Full,
    /// The replay trace is no longer retained past the budget.
    TraceDropped,
    /// The hottest variables are quarantined from HB-edge creation.
    VarQuarantine,
    /// Analysis disabled; events are only observed/recorded.
    RecorderOnly,
}

impl DegradationLevel {
    /// All ladder states, in degradation order.
    pub const ALL: [Self; 4] = [
        Self::Full,
        Self::TraceDropped,
        Self::VarQuarantine,
        Self::RecorderOnly,
    ];

    /// The rung number on the ladder: 0 at full fidelity, rising as
    /// fidelity is shed. This is what the `engine.ladder` telemetry gauge
    /// carries, so exported snapshots can check monotonicity numerically.
    pub fn rung(self) -> u64 {
        match self {
            Self::Full => 0,
            Self::TraceDropped => 1,
            Self::VarQuarantine => 2,
            Self::RecorderOnly => 3,
        }
    }

    /// A short, stable name for telemetry and reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::TraceDropped => "trace-dropped",
            Self::VarQuarantine => "var-quarantine",
            Self::RecorderOnly => "recorder-only",
        }
    }
}

impl fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        assert!(ResourceBudget::default().is_unlimited());
        assert!(!ResourceBudget {
            max_alive_nodes: 1,
            ..ResourceBudget::default()
        }
        .is_unlimited());
    }

    #[test]
    fn ladder_orders_from_full_to_recorder_only() {
        let mut prev = None;
        for level in DegradationLevel::ALL {
            if let Some(p) = prev {
                assert!(p < level, "{p} should precede {level}");
            }
            prev = Some(level);
        }
        assert_eq!(DegradationLevel::default(), DegradationLevel::Full);
    }

    #[test]
    fn rungs_match_ladder_order() {
        let rungs: Vec<u64> = DegradationLevel::ALL.iter().map(|l| l.rung()).collect();
        assert_eq!(rungs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DegradationLevel::RecorderOnly.to_string(), "recorder-only");
        assert_eq!(DegradationLevel::Full.name(), "full");
    }
}
