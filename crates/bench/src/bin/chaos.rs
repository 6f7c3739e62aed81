//! Chaos smoke test: replays a fixed-seed workload trace under the
//! built-in fault-plan set and asserts the fault-tolerance contract —
//! the host run completes under every fault, pre-degradation verdicts are
//! byte-identical to the clean run, and telemetry pinpoints the exact
//! degradation event. Exits nonzero on any violation.
//!
//! Usage:
//! `cargo run --release -p velodrome-bench --bin chaos [--scale=2] [--seed=1]`

use velodrome_bench::arg_u64;
use velodrome_bench::chaos::{chaos_trace, run_builtin};
use velodrome_monitor::DegradationLevel;

fn main() {
    let scale = arg_u64("scale", 2) as u32;
    let seed = arg_u64("seed", 1);
    let trace = chaos_trace("multiset", scale, seed);
    println!(
        "chaos: multiset scale={scale} seed={seed} — {} events",
        trace.len()
    );
    println!(
        "{:<28} {:>14} {:>12} {:>9} {:>10} {:>6}",
        "plan", "ladder", "degraded@", "verdicts", "delivered", "ok"
    );

    // Injected tool panics are caught by the harness; keep the default
    // panic hook from spamming stderr with expected backtraces.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcomes = run_builtin(&trace);
    std::panic::set_hook(hook);
    let mut failures = 0;
    for o in &outcomes {
        let c = &o.contract;
        println!(
            "{:<28} {:>14} {:>12} {:>9} {:>10} {:>6}",
            o.plan.to_string(),
            c.ladder.to_string(),
            c.degraded_at
                .map(|i| i.to_string())
                .unwrap_or_else(|| "-".into()),
            o.run.verdicts().count(),
            o.run.telemetry.events_seen,
            if c.upheld() { "ok" } else { "FAIL" }
        );
        if !c.upheld() {
            failures += 1;
            if let Some((clean, faulted)) = &c.divergence {
                eprintln!(
                    "  pre-degradation verdict divergence:\n    clean:   {clean:?}\n    faulted: {faulted:?}"
                );
            }
        }
    }

    // The clean control must stay at full fidelity, and at least one fault
    // must actually exercise the ladder — otherwise the harness is vacuous.
    let clean_full = outcomes.first().is_some_and(|o| {
        o.contract.ladder == DegradationLevel::Full && o.contract.degraded_at.is_none()
    });
    let some_degraded = outcomes.iter().any(|o| o.contract.degraded_at.is_some());
    if !clean_full {
        eprintln!("chaos: clean control run degraded");
        failures += 1;
    }
    if !some_degraded {
        eprintln!("chaos: no plan exercised the degradation ladder");
        failures += 1;
    }

    if failures > 0 {
        eprintln!("chaos: {failures} contract violations");
        std::process::exit(1);
    }
    println!("chaos: all {} plans upheld the contract", outcomes.len());
}
