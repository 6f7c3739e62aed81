//! Chaos harness: declarative fault injection for the monitoring runtime.
//!
//! A production atomicity monitor must survive its own failures: a
//! panicking back-end, an exhausted resource budget, an event stream cut
//! off mid-transaction, a host thread dying inside an atomic block. A
//! [`FaultPlan`] names one such failure declaratively; [`run_plan`] applies
//! it while replaying a recorded trace through the live
//! [`Runtime`] — the same quarantine, trace budget and closer synthesis a
//! monitored program gets — and [`check_contract`] reports where (if
//! anywhere) fidelity was lost.
//!
//! The harness's contract — asserted by `crates/monitor/tests/chaos.rs`
//! and the `chaos` benchmark binary — is threefold: the host always
//! completes, every warning emitted *before* the degradation point is
//! byte-identical to a clean run, and telemetry pinpoints the exact event
//! at which the run degraded.

use crate::budget::{DegradationLevel, ResourceBudget};
use crate::shim::{Runtime, RuntimeTelemetry};
use crate::tool::{Tool, Warning, WarningCategory};
use std::fmt;
use velodrome_events::{Op, Trace};

/// A declarative fault to inject into a monitored run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault: the control plan.
    #[default]
    None,
    /// The back-end tool panics while processing the event at this index.
    ToolPanic {
        /// Index of the event whose callback panics.
        at: usize,
    },
    /// The event stream ends abruptly after this many events (a crashed
    /// front end / truncated recording); `end_of_trace` still fires.
    TruncateStream {
        /// Number of events delivered before the cut.
        at: usize,
    },
    /// A resource budget is exhausted mid-run, forcing the analysis down
    /// the degradation ladder.
    Budget(ResourceBudget),
    /// A host thread dies mid-transaction: delivery stops at the cut
    /// index and the implied `end`/`rel` events are synthesized, exactly
    /// as [`Runtime::finish`](crate::shim::Runtime::finish) does for a
    /// thread that panicked inside an atomic block.
    HostDeath {
        /// Number of events delivered before the thread dies.
        at: usize,
    },
}

/// A named fault plan: one [`Fault`] applied to a monitored run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Stable name for reports.
    pub name: &'static str,
    /// The fault to inject.
    pub fault: Fault,
}

impl FaultPlan {
    /// The control plan: no fault.
    pub fn clean() -> Self {
        Self {
            name: "clean",
            fault: Fault::None,
        }
    }

    /// A tool panic at event `at`.
    pub fn tool_panic(at: usize) -> Self {
        Self {
            name: "tool-panic",
            fault: Fault::ToolPanic { at },
        }
    }

    /// A stream truncated after `at` events.
    pub fn truncate(at: usize) -> Self {
        Self {
            name: "truncated-stream",
            fault: Fault::TruncateStream { at },
        }
    }

    /// A budget-exhaustion fault.
    pub fn budget(budget: ResourceBudget) -> Self {
        Self {
            name: "budget-exhaustion",
            fault: Fault::Budget(budget),
        }
    }

    /// A host thread dying mid-transaction after `at` events.
    pub fn host_death(at: usize) -> Self {
        Self {
            name: "host-death",
            fault: Fault::HostDeath { at },
        }
    }

    /// The resource budget this plan imposes (unlimited unless the fault
    /// is [`Fault::Budget`]).
    pub fn budget_of(&self) -> ResourceBudget {
        match self.fault {
            Fault::Budget(b) => b,
            _ => ResourceBudget::UNLIMITED,
        }
    }

    /// The built-in plan set covering every fault point, scaled to a trace
    /// of `len` events. Used by the chaos test suite and benchmark binary.
    pub fn builtin(len: usize) -> Vec<FaultPlan> {
        let mid = len / 2;
        vec![
            Self::clean(),
            Self::tool_panic(mid),
            Self::tool_panic(0),
            Self::truncate(mid),
            Self::truncate(len.saturating_sub(1)),
            Self::budget(ResourceBudget {
                max_alive_nodes: 4,
                ..ResourceBudget::UNLIMITED
            }),
            Self::budget(ResourceBudget {
                max_tracked_vars: 1,
                ..ResourceBudget::UNLIMITED
            }),
            Self::budget(ResourceBudget {
                max_trace_events: mid,
                ..ResourceBudget::UNLIMITED
            }),
            Self::host_death(mid),
        ]
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.fault {
            Fault::None => write!(f, "{}", self.name),
            Fault::ToolPanic { at } | Fault::TruncateStream { at } | Fault::HostDeath { at } => {
                write!(f, "{}@{at}", self.name)
            }
            Fault::Budget(b) => write!(
                f,
                "{}(alive={},trace={},vars={})",
                self.name, b.max_alive_nodes, b.max_trace_events, b.max_tracked_vars
            ),
        }
    }
}

/// A tool combinator that panics while processing the event at a fixed
/// index — the canonical "buggy back-end" for chaos runs.
#[derive(Debug)]
pub struct PanicAt<T> {
    inner: T,
    at: usize,
}

impl<T: Tool> PanicAt<T> {
    /// Wraps `inner`; its `op` callback panics at event index `at`.
    pub fn new(inner: T, at: usize) -> Self {
        Self { inner, at }
    }
}

impl<T: Tool> Tool for PanicAt<T> {
    fn name(&self) -> &'static str {
        "panic-at"
    }
    fn op(&mut self, index: usize, op: Op) {
        assert!(
            index != self.at,
            "chaos: injected tool panic at event {index}"
        );
        self.inner.op(index, op);
    }
    fn end_of_trace(&mut self) {
        self.inner.end_of_trace();
    }
    fn take_warnings(&mut self) -> Vec<Warning> {
        self.inner.take_warnings()
    }
}

/// Outcome of a chaos run.
#[derive(Debug)]
pub struct ChaosRun {
    /// All warnings produced, including `Degraded` transitions, ordered by
    /// event index.
    pub warnings: Vec<Warning>,
    /// The runtime's telemetry at the end of the run: its ladder state,
    /// events delivered (synthesized closers included) and closers
    /// synthesized.
    pub telemetry: RuntimeTelemetry,
}

impl ChaosRun {
    /// The warnings that are *verdicts* (everything except `Degraded`
    /// bookkeeping).
    pub fn verdicts(&self) -> impl Iterator<Item = &Warning> {
        self.warnings
            .iter()
            .filter(|w| w.category != WarningCategory::Degraded)
    }
}

/// Replays `trace` through `tool` inside a live [`Runtime`] under `plan`:
/// the plan's budget is the runtime's, a [`Fault::ToolPanic`] wraps the
/// tool in [`PanicAt`], and a cut stream stops delivery at the cut. A
/// [`Fault::HostDeath`] run ends with [`Runtime::finish`], which
/// synthesizes the closers of open transactions and held locks; every
/// other run ends with the same flush minus the synthesis.
pub fn run_plan<T: Tool + Send + 'static>(trace: &Trace, tool: T, plan: &FaultPlan) -> ChaosRun {
    let rt = match plan.fault {
        Fault::ToolPanic { at } => {
            Runtime::online_with_budget(PanicAt::new(tool, at), plan.budget_of())
        }
        _ => Runtime::online_with_budget(tool, plan.budget_of()),
    };
    let cut = match plan.fault {
        Fault::TruncateStream { at } | Fault::HostDeath { at } => at,
        _ => trace.len(),
    };
    for (_, op) in trace.iter().take(cut) {
        rt.emit(op);
    }
    let (_, mut warnings) = match plan.fault {
        Fault::HostDeath { .. } => rt.finish(),
        _ => rt.flush(),
    };
    warnings.sort_by_key(|w| w.op_index);
    ChaosRun {
        warnings,
        telemetry: rt.telemetry(),
    }
}

/// The fault-tolerance contract evaluated for one faulted run against the
/// clean control run.
#[derive(Debug)]
pub struct Contract {
    /// The rung the run landed on: the runtime's own, or the furthest down
    /// the ladder any `Degraded` warning names if that is further (the
    /// tool's transitions show only as warnings).
    pub ladder: DegradationLevel,
    /// The first event index a `Degraded` warning names, if any.
    pub degraded_at: Option<usize>,
    /// `None` if every verdict before the fidelity bound matched the clean
    /// run byte for byte; otherwise the first divergence.
    pub divergence: Option<(Option<String>, Option<String>)>,
}

impl Contract {
    /// Did the run uphold the contract: an identical verdict prefix, and a
    /// pinpointed event for any degradation?
    pub fn upheld(&self) -> bool {
        self.divergence.is_none()
            && (self.ladder == DegradationLevel::Full || self.degraded_at.is_some())
    }
}

/// Evaluates the contract for `run`, made under `plan`, against the
/// warnings of the clean run. Verdicts strictly before the degradation
/// point must match the clean run; a cut stream bounds fidelity at the cut
/// even if nothing degraded.
pub fn check_contract(plan: &FaultPlan, clean: &[Warning], run: &ChaosRun) -> Contract {
    let degraded = || {
        run.warnings
            .iter()
            .filter(|w| w.category == WarningCategory::Degraded)
    };
    let ladder = degraded()
        .flat_map(|w| {
            DegradationLevel::ALL
                .into_iter()
                .filter(|level| w.message.contains(&format!("degraded to {level}")))
        })
        .fold(run.telemetry.ladder, DegradationLevel::max);
    let degraded_at = degraded().map(|w| w.op_index).min();
    let bound = degraded_at.unwrap_or(usize::MAX);
    let before = match plan.fault {
        Fault::TruncateStream { at } | Fault::HostDeath { at } => at.min(bound),
        _ => bound,
    };
    Contract {
        ladder,
        degraded_at,
        divergence: prefix_divergence(clean, &run.warnings, before),
    }
}

/// Renders a warning into a canonical byte string for exact comparison.
fn warning_bytes(w: &Warning) -> String {
    format!(
        "{}|{}|{:?}|{}|{}|{}|{}",
        w.tool,
        w.category,
        w.label,
        w.thread.raw(),
        w.op_index,
        w.message,
        w.details.as_deref().unwrap_or("")
    )
}

/// Checks the chaos harness's core guarantee: every *verdict* warning with
/// `op_index < before` is byte-identical between the clean and faulted
/// runs (`Degraded` bookkeeping warnings in the faulted run are exempt).
/// Returns the first divergence, if any.
fn prefix_divergence(
    clean: &[Warning],
    faulted: &[Warning],
    before: usize,
) -> Option<(Option<String>, Option<String>)> {
    let keep = |ws: &[Warning]| -> Vec<String> {
        ws.iter()
            .filter(|w| w.category != WarningCategory::Degraded && w.op_index < before)
            .map(warning_bytes)
            .collect()
    };
    let (c, f) = (keep(clean), keep(faulted));
    let same = c.iter().zip(&f).take_while(|(c, f)| c == f).count();
    (c.len().max(f.len()) > same).then(|| (c.get(same).cloned(), f.get(same).cloned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::EmptyTool;
    use velodrome_events::{ThreadId, TraceBuilder};

    fn trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.begin("T1", "add").acquire("T1", "m").read("T1", "x");
        b.write("T1", "x").release("T1", "m").end("T1");
        b.read("T2", "x");
        b.finish()
    }

    #[test]
    fn clean_plan_delivers_everything() {
        let run = run_plan(&trace(), EmptyTool::new(), &FaultPlan::clean());
        assert_eq!(run.telemetry.events_seen, 7);
        assert_eq!(run.telemetry.ladder, DegradationLevel::Full);
        assert_eq!(run.telemetry.degraded_at, None);
        assert_eq!(run.telemetry.synthesized_events, 0);
    }

    #[test]
    fn tool_panic_is_isolated_and_pinpointed() {
        let run = run_plan(&trace(), EmptyTool::new(), &FaultPlan::tool_panic(3));
        assert_eq!(run.telemetry.ladder, DegradationLevel::RecorderOnly);
        assert_eq!(run.telemetry.degraded_at, Some(3));
        let degraded: Vec<_> = run
            .warnings
            .iter()
            .filter(|w| w.category == WarningCategory::Degraded)
            .collect();
        assert_eq!(degraded.len(), 1);
        assert!(degraded[0].message.contains("event 3"), "{degraded:?}");
    }

    #[test]
    fn truncation_cuts_delivery_but_still_flushes() {
        let run = run_plan(&trace(), EmptyTool::new(), &FaultPlan::truncate(2));
        assert_eq!(run.telemetry.events_seen, 2);
        assert_eq!(run.telemetry.ladder, DegradationLevel::Full);
    }

    #[test]
    fn host_death_synthesizes_closing_events() {
        // Cut after acquire+begin+read: one open txn, one held lock.
        let run = run_plan(&trace(), EmptyTool::new(), &FaultPlan::host_death(3));
        assert_eq!(run.telemetry.synthesized_events, 2, "rel(m) and end(T1)");
        assert_eq!(run.telemetry.events_seen, 5);
    }

    #[test]
    fn trace_budget_plan_lands_on_trace_dropped_at_the_budget() {
        let plan = FaultPlan::budget(ResourceBudget {
            max_trace_events: 4,
            ..ResourceBudget::UNLIMITED
        });
        let run = run_plan(&trace(), EmptyTool::new(), &plan);
        assert_eq!(run.telemetry.ladder, DegradationLevel::TraceDropped);
        assert_eq!(run.telemetry.degraded_at, Some(4));
        assert_eq!(run.telemetry.trace_events_dropped, 3);
        let contract = check_contract(&plan, &[], &run);
        assert_eq!(contract.ladder, DegradationLevel::TraceDropped);
        assert_eq!(contract.degraded_at, Some(4));
        assert!(contract.upheld());
    }

    #[test]
    fn unwarned_degradation_breaks_the_contract() {
        let run = ChaosRun {
            warnings: Vec::new(),
            telemetry: RuntimeTelemetry {
                ladder: DegradationLevel::RecorderOnly,
                ..RuntimeTelemetry::default()
            },
        };
        let contract = check_contract(&FaultPlan::clean(), &[], &run);
        assert_eq!(contract.degraded_at, None);
        assert!(!contract.upheld());
    }

    #[test]
    fn builtin_plans_cover_every_fault_kind() {
        let plans = FaultPlan::builtin(100);
        assert!(plans.iter().any(|p| matches!(p.fault, Fault::None)));
        assert!(plans
            .iter()
            .any(|p| matches!(p.fault, Fault::ToolPanic { .. })));
        assert!(plans
            .iter()
            .any(|p| matches!(p.fault, Fault::TruncateStream { .. })));
        assert!(plans.iter().any(|p| matches!(p.fault, Fault::Budget(_))));
        assert!(plans
            .iter()
            .any(|p| matches!(p.fault, Fault::HostDeath { .. })));
    }

    #[test]
    fn prefix_divergence_ignores_degraded_and_post_cut_warnings() {
        let mk = |op_index: usize, category: WarningCategory, msg: &str| Warning {
            tool: "t",
            category,
            label: None,
            thread: ThreadId::new(0),
            op_index,
            message: msg.into(),
            details: None,
        };
        let clean = vec![
            mk(1, WarningCategory::Atomicity, "a"),
            mk(9, WarningCategory::Atomicity, "late"),
        ];
        let faulted = vec![
            mk(1, WarningCategory::Atomicity, "a"),
            mk(2, WarningCategory::Degraded, "degraded"),
        ];
        assert_eq!(prefix_divergence(&clean, &faulted, 5), None);
        let diverged = vec![mk(1, WarningCategory::Atomicity, "b")];
        assert!(prefix_divergence(&clean, &diverged, 5).is_some());
    }
}
