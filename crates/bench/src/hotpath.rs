//! Workload generator for the happens-before hot path.
//!
//! `perfbench/` times the checker on this open-transaction fan-in trace:
//! it maximizes transitively-implied edge insertions, which is exactly the
//! traffic the arena's redundant-edge elision gate and the engine's
//! per-thread epoch cache remove. The tests below pin what those fast
//! paths must preserve: warnings and reports identical to the baseline
//! engine (elision and epoch cache off), and the edges they save.

use velodrome_events::{Trace, TraceBuilder};

/// Builds the fan-in stress trace: `waves` waves of `threads` concurrent
/// transactions. Within a wave, thread `i` writes its own variable and then
/// — for `rounds` passes — reads every earlier thread's variable in
/// descending order, so only the `i-1 → i` chain edge is new and every
/// other ordering arrives already implied through the chain. The wave order
/// is a serialization, so the trace is violation-free.
pub fn fanin_stress_trace(waves: u64, threads: u64, rounds: u64) -> Trace {
    let mut b = TraceBuilder::new();
    let tname: Vec<String> = (0..threads).map(|i| format!("T{i}")).collect();
    let vname: Vec<String> = (0..threads).map(|i| format!("v{i}")).collect();
    for w in 0..waves {
        for (t, v) in tname.iter().zip(&vname) {
            b.begin(t, &format!("wave{w}"));
            b.write(t, v);
        }
        for _ in 0..rounds {
            for (i, t) in tname.iter().enumerate() {
                for v in vname[..i].iter().rev() {
                    b.read(t, v);
                }
            }
        }
        for t in &tname {
            b.end(t);
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome::{check_trace_with, Velodrome, VelodromeConfig};
    use velodrome_monitor::Warning;

    fn run(trace: &Trace, elide: bool) -> (Vec<Warning>, Velodrome) {
        let cfg = VelodromeConfig {
            elide_redundant_edges: elide,
            names: trace.names().clone(),
            ..Default::default()
        };
        check_trace_with(trace, cfg)
    }

    /// Runs the optimized and the baseline engine over `trace`, asserts
    /// their warnings and reports byte-identical, and returns both engines.
    fn optimized_and_baseline(trace: &Trace) -> (Velodrome, Velodrome) {
        let outputs = |elide| {
            let (warnings, engine) = run(trace, elide);
            let warnings = serde_json::to_string(&warnings).unwrap();
            let reports = serde_json::to_string(engine.reports()).unwrap();
            (warnings, reports, engine)
        };
        let (opt_warnings, opt_reports, optimized) = outputs(true);
        let (base_warnings, base_reports, baseline) = outputs(false);
        assert_eq!(opt_warnings, base_warnings, "warnings diverge");
        assert_eq!(opt_reports, base_reports, "reports diverge");
        (optimized, baseline)
    }

    #[test]
    fn fanin_trace_is_serializable_and_mostly_elided() {
        let (warnings, engine) = run(&fanin_stress_trace(4, 4, 2), true);
        assert!(warnings.is_empty(), "the wave order serializes the trace");
        let stats = engine.stats();
        assert!(stats.edges_elided > stats.edges_added, "{stats}");
        engine.check_invariants();
    }

    #[test]
    fn fanin_elision_saves_at_least_30_percent_of_edge_insertions() {
        let trace = fanin_stress_trace(20, 8, 4);
        let (optimized, baseline) = optimized_and_baseline(&trace);
        let (opt, base) = (optimized.stats(), baseline.stats());
        assert!(opt.edges_elided > 0, "{opt}");
        assert!(
            10 * opt.edges_added <= 7 * base.edges_added,
            "{} -> {} edges added",
            base.edges_added,
            opt.edges_added
        );
    }

    #[test]
    fn multiset_outputs_match_the_baseline_under_both_schedulers() {
        let multiset = velodrome_workloads::build("multiset", 1).expect("workload");
        for trace in [multiset.run_round_robin(), multiset.run_adversarial(1, 40)] {
            let (optimized, _) = optimized_and_baseline(&trace);
            assert!(
                optimized.stats().cycles_detected > 0,
                "{}",
                optimized.stats()
            );
        }
    }
}
