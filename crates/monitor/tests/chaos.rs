//! Chaos suite: fault injection against the live runtime, driven both by
//! shims and by the chaos replay driver, with the real Velodrome engine as
//! the monitored tool.
//!
//! The contract under test (see `crates/monitor/src/chaos.rs`):
//! 1. the host workload always completes — no injected fault may propagate
//!    a panic to the caller or hang the run;
//! 2. every verdict reached before the degradation point is byte-identical
//!    to a clean run's;
//! 3. telemetry pinpoints the exact event at which the run degraded.

use proptest::prelude::*;
use velodrome::{Velodrome, VelodromeConfig};
use velodrome_events::Trace;
use velodrome_monitor::chaos::{check_contract, run_plan, PanicAt};
use velodrome_monitor::shim::Runtime;
use velodrome_monitor::{DegradationLevel, Fault, FaultPlan, ResourceBudget, WarningCategory};
use velodrome_sim::{random_program, run_program, GenConfig, RandomScheduler};

fn engine_for(trace: &Trace, budget: ResourceBudget) -> Velodrome {
    Velodrome::with_config(VelodromeConfig {
        names: trace.names().clone(),
        dedup_per_label: false,
        budget,
        ..VelodromeConfig::default()
    })
}

fn gen_trace(seed: u64, threads: usize, stmts: usize) -> Trace {
    let cfg = GenConfig {
        threads,
        vars: 3,
        locks: 2,
        stmts_per_thread: stmts,
        ..GenConfig::default()
    };
    let program = random_program(&cfg, seed);
    run_program(&program, RandomScheduler::new(seed)).trace
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    prop_oneof![
        Just(FaultPlan::clean()),
        (0usize..200).prop_map(FaultPlan::tool_panic),
        (0usize..200).prop_map(FaultPlan::truncate),
        (0usize..200).prop_map(FaultPlan::host_death),
        (0usize..6, 0usize..6, 0usize..4).prop_map(|(alive, trace, vars)| {
            FaultPlan::budget(ResourceBudget {
                max_alive_nodes: alive,
                max_trace_events: trace,
                max_tracked_vars: vars,
            })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any fault plan on any generated program: the host never panics, the
    /// run lands in the ladder state its warnings declare, and verdicts
    /// before the degradation point match the clean run byte-for-byte.
    #[test]
    fn arbitrary_faults_never_escape_and_keep_prefix_fidelity(
        seed in 0u64..500,
        threads in 2usize..4,
        plan in arb_plan(),
    ) {
        let trace = gen_trace(seed, threads, 6);
        let clean = run_plan(&trace, engine_for(&trace, ResourceBudget::UNLIMITED), &FaultPlan::clean());
        // Completing run_plan at all is guarantee 1 (no escaped panic).
        let run = run_plan(&trace, engine_for(&trace, plan.budget_of()), &plan);
        // The runtime itself steps down only for a tool panic and for the
        // trace budget; host-death closers hit nothing that degrades an
        // unbudgeted engine.
        let (ladder, degraded_at) = match plan.fault {
            Fault::ToolPanic { at } if at < trace.len() => (DegradationLevel::RecorderOnly, Some(at)),
            Fault::Budget(b) if b.max_trace_events > 0 && trace.len() > b.max_trace_events => {
                (DegradationLevel::TraceDropped, Some(b.max_trace_events))
            }
            _ => (DegradationLevel::Full, None),
        };
        prop_assert_eq!(run.telemetry.ladder, ladder);
        prop_assert_eq!(run.telemetry.degraded_at, degraded_at);

        // Guarantee 3 (a degradation names its event) and guarantee 2 (a
        // byte-identical verdict prefix).
        let contract = check_contract(&plan, &clean.warnings, &run);
        prop_assert!(contract.upheld(), "{}: {:?}", plan, contract);
    }
}

#[test]
fn double_finish_is_idempotent() {
    let rt = Runtime::online(Velodrome::new());
    rt.atomic("work", || {
        let x = rt.shared("x", 0i32);
        x.set(x.get() + 1);
    });
    let (trace, warnings) = rt.finish();
    assert!(trace.len() >= 4, "begin/read/write/end recorded");
    let (trace2, warnings2) = rt.finish();
    assert_eq!(trace2.len(), 0, "second finish returns an empty trace");
    assert!(warnings2.is_empty(), "second finish returns no warnings");
    // The first finish's results are unaffected.
    assert!(warnings
        .iter()
        .all(|w| w.category != WarningCategory::Degraded));
}

#[test]
fn host_death_mid_transaction_synthesizes_closers() {
    let rt = Runtime::recorder();
    let lock = rt.lock("m", ());
    let guard = lock.lock();
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.atomic("doomed", || panic!("host thread dies mid-transaction"))
    }));
    assert!(boom.is_err(), "the host panic itself propagates");
    // The open transaction (and the still-held lock) are closed by finish.
    std::mem::forget(guard); // simulate a guard lost to the dead thread
    let (trace, warnings) = rt.finish();
    let synthesized: Vec<usize> = trace.synthesized().to_vec();
    assert!(
        synthesized.len() >= 2,
        "implied end and release are synthesized and flagged: {synthesized:?}"
    );
    let last = trace.len() - 1;
    assert!(trace.is_synthesized(last));
    assert!(warnings.is_empty(), "recorder mode has no tool to warn");
}

#[test]
fn live_tool_panic_is_quarantined_and_salvaged() {
    // The wrapped engine panics at event index 2; the host must finish the
    // workload untouched, and telemetry must pinpoint event 2.
    let rt = Runtime::online(PanicAt::new(Velodrome::new(), 2));
    for _ in 0..3 {
        rt.atomic("work", || {
            let x = rt.shared("x", 0i32);
            x.set(x.get() + 1);
        });
    }
    let telemetry = rt.telemetry();
    assert_eq!(telemetry.tool_panics, 1);
    assert_eq!(telemetry.degraded_at, Some(2));
    assert_eq!(rt.ladder(), DegradationLevel::RecorderOnly);
    let (trace, warnings) = rt.finish();
    assert!(
        trace.len() >= 12,
        "recording continues after quarantine: {}",
        trace.len()
    );
    let degraded: Vec<_> = warnings
        .iter()
        .filter(|w| w.category == WarningCategory::Degraded)
        .collect();
    assert_eq!(degraded.len(), 1);
    assert!(degraded[0].message.contains("event 2"), "{degraded:?}");
}

#[test]
fn trace_budget_degrades_to_trace_dropped() {
    let rt = Runtime::recorder_with_budget(ResourceBudget {
        max_trace_events: 3,
        ..ResourceBudget::UNLIMITED
    });
    for _ in 0..4 {
        rt.atomic("work", || {
            let x = rt.shared("x", 0i32);
            x.set(x.get() + 1);
        });
    }
    assert_eq!(rt.ladder(), DegradationLevel::TraceDropped);
    let telemetry = rt.telemetry();
    assert!(telemetry.trace_events_dropped > 0);
    assert!(telemetry.degraded_at.is_some());
    let (trace, warnings) = rt.finish();
    assert_eq!(trace.len(), 3, "retained trace stays within budget");
    assert!(warnings
        .iter()
        .any(|w| w.category == WarningCategory::Degraded));
}
