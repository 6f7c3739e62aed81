//! Chaos experiment: drives the built-in [`FaultPlan`] set against a real
//! workload trace and checks the fault-tolerance contract — the host run
//! always completes, verdicts before the degradation point are
//! byte-identical to a clean run, and telemetry pinpoints the exact event
//! where fidelity was lost.
//!
//! The `chaos` binary prints one row per plan and exits nonzero if any
//! plan violates the contract, which makes it usable as a CI smoke test
//! (`scripts/ci-gate.sh` runs it at a fixed seed).

use velodrome::{Velodrome, VelodromeConfig};
use velodrome_events::Trace;
use velodrome_monitor::chaos::{check_contract, run_plan, ChaosRun, Contract};
use velodrome_monitor::FaultPlan;
use velodrome_sim::{run_program, RandomScheduler};

/// Outcome of one fault plan, with the contract checks evaluated.
#[derive(Debug)]
pub struct PlanOutcome {
    /// The plan that ran.
    pub plan: FaultPlan,
    /// The faulted run.
    pub run: ChaosRun,
    /// The contract evaluated against the clean control run.
    pub contract: Contract,
}

/// Runs one plan over `trace` with the Velodrome engine as the tool.
pub fn run_one(trace: &Trace, plan: &FaultPlan) -> ChaosRun {
    let engine = Velodrome::with_config(VelodromeConfig {
        names: trace.names().clone(),
        budget: plan.budget_of(),
        ..VelodromeConfig::default()
    });
    run_plan(trace, engine, plan)
}

/// Generates the fixed-seed trace the chaos experiment replays.
pub fn chaos_trace(workload: &str, scale: u32, seed: u64) -> Trace {
    let w = velodrome_workloads::build(workload, scale).expect("workload exists");
    run_program(&w.program, RandomScheduler::new(seed)).trace
}

/// Runs the built-in plan set over `trace` and evaluates the contract for
/// each plan against the clean control run.
pub fn run_builtin(trace: &Trace) -> Vec<PlanOutcome> {
    let clean = run_one(trace, &FaultPlan::clean());
    FaultPlan::builtin(trace.len())
        .into_iter()
        .map(|plan| {
            let run = run_one(trace, &plan);
            let contract = check_contract(&plan, &clean.warnings, &run);
            PlanOutcome {
                plan,
                run,
                contract,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome_monitor::{DegradationLevel, Fault};

    #[test]
    fn builtin_plans_uphold_contract_on_multiset() {
        let trace = chaos_trace("multiset", 1, 1);
        let outcomes = run_builtin(&trace);
        assert_eq!(outcomes.len(), FaultPlan::builtin(trace.len()).len());
        for o in &outcomes {
            assert!(
                o.contract.upheld(),
                "{}: {:?}",
                o.plan,
                o.contract.divergence
            );
        }
        // The clean plan must not degrade; at least one faulted plan must.
        assert!(outcomes
            .iter()
            .any(|o| matches!(o.plan.fault, Fault::None)
                && o.contract.ladder == DegradationLevel::Full));
        assert!(outcomes.iter().any(|o| o.contract.degraded_at.is_some()));
    }
}
