//! Table 1: per-backend analysis overhead and happens-before graph node
//! statistics (Allocated / Max Alive, Without Merge vs With Merge).
//!
//! The paper measures wall-clock slowdown of the instrumented JVM; our
//! substrate is a trace replay, so we report analysis nanoseconds per
//! event and the overhead of each backend *relative to the Empty tool* —
//! the paper's claim being relative ("competitive with Eraser and the
//! Atomizer"), not absolute.

use crate::{report, run_backend};
use serde::Serialize;
use std::time::Instant;
use velodrome_cli::backend::Settings;
use velodrome_events::{Op, Trace};
use velodrome_monitor::AtomicitySpec;
use velodrome_telemetry::{names, Snapshot, Telemetry};
use velodrome_workloads::Workload;

/// The backends timed in the paper's Table 1, in column order. The first
/// is the denominator of every overhead ratio.
pub const TIMED: [&str; 4] = ["empty", "eraser", "atomizer", "velodrome"];

/// One Table 1 row.
#[derive(Debug, Serialize)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Original benchmark size, for reference.
    pub paper_lines: u32,
    /// Events in the analyzed trace.
    pub events: usize,
    /// Analysis nanoseconds per event, per timed backend
    /// (empty/eraser/atomizer/velodrome).
    pub ns_per_op: [f64; 4],
    /// Overhead relative to the Empty tool, per timed backend.
    pub rel_overhead: [f64; 4],
    /// Transactions allocated without the merge optimization.
    pub alloc_without_merge: u64,
    /// Peak alive transactions without merge.
    pub alive_without_merge: u64,
    /// Transactions allocated with merge.
    pub alloc_with_merge: u64,
    /// Peak alive transactions with merge.
    pub alive_with_merge: u64,
}

/// Builds the Table 1 configuration's atomicity spec: exclude the methods
/// already known to be non-atomic, checking only the rest.
pub fn exclusion_spec(workload: &Workload, trace: &Trace) -> AtomicitySpec {
    // Map ground-truth method names to the labels used in this trace.
    let mut excluded = Vec::new();
    for (_, op) in trace.iter() {
        if let Op::Begin { l, .. } = op {
            if workload.is_non_atomic(&trace.names().label(l)) {
                excluded.push(l);
            }
        }
    }
    AtomicitySpec::excluding(excluded)
}

/// Runs backend `name` under `spec` against a fresh telemetry registry and
/// returns the final snapshot: the node-statistics columns are read from
/// its `arena.*` gauges. Untimed, since the registry costs time.
pub fn registry_run(name: &str, trace: &Trace, spec: &AtomicitySpec) -> Snapshot {
    let settings = Settings {
        telemetry: Telemetry::registry(),
        spec: Some(spec.clone()),
        ..Settings::default()
    };
    run_backend(name, trace, &settings);
    settings
        .telemetry
        .snapshot(0, trace.len() as u64)
        .expect("telemetry registry enabled")
}

/// Runs the Table 1 measurement for one workload.
///
/// `repeats` re-runs each timed backend and keeps the fastest measurement
/// (reducing scheduler noise without a full criterion run).
pub fn measure(workload: &Workload, repeats: u32) -> Table1Row {
    let trace = workload.run_round_robin();
    let spec = exclusion_spec(workload, &trace);
    let timed = Settings {
        spec: Some(spec.clone()),
        ..Settings::default()
    };
    let ns_per_op = TIMED.map(|name| {
        (0..repeats.max(1))
            .map(|_| {
                let start = Instant::now();
                run_backend(name, &trace, &timed);
                start.elapsed().as_nanos() as f64 / trace.len().max(1) as f64
            })
            .fold(f64::INFINITY, f64::min)
    });
    let empty = ns_per_op[0].max(1e-9);
    let rel_overhead = ns_per_op.map(|ns| ns / empty);

    let without = registry_run("velodrome-nomerge", &trace, &spec);
    let with = registry_run("velodrome", &trace, &spec);
    let gauge = |snap: &Snapshot, name: &str| snap.scalar(name).unwrap_or(0);

    Table1Row {
        name: workload.name.to_string(),
        paper_lines: workload.paper_lines,
        events: trace.len(),
        ns_per_op,
        rel_overhead,
        alloc_without_merge: gauge(&without, names::ARENA_ALLOCATED),
        alive_without_merge: gauge(&without, names::ARENA_MAX_ALIVE),
        alloc_with_merge: gauge(&with, names::ARENA_ALLOCATED),
        alive_with_merge: gauge(&with, names::ARENA_MAX_ALIVE),
    }
}

/// Runs Table 1 for every workload at the given scale.
pub fn run_table1(scale: u32, repeats: u32) -> Vec<Table1Row> {
    velodrome_workloads::all(scale)
        .iter()
        .map(|w| measure(w, repeats))
        .collect()
}

/// Renders rows in the paper's layout.
pub fn render(rows: &[Table1Row]) -> String {
    let header = [
        "program",
        "events",
        "empty ns/op",
        "eraser",
        "atomizer",
        "velodrome",
        "alloc w/o merge",
        "alive",
        "alloc w/ merge",
        "alive",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                report::count(r.events as u64),
                format!("{:.0}", r.ns_per_op[0]),
                report::ratio(r.rel_overhead[1]),
                report::ratio(r.rel_overhead[2]),
                report::ratio(r.rel_overhead[3]),
                report::count(r.alloc_without_merge),
                report::count(r.alive_without_merge),
                report::count(r.alloc_with_merge),
                report::count(r.alive_with_merge),
            ]
        })
        .collect();
    report::table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_for_multiset_shows_merge_benefit() {
        let w = velodrome_workloads::build("multiset", 1).unwrap();
        let row = measure(&w, 1);
        assert!(row.events > 100);
        assert!(
            row.alloc_without_merge > 10 * row.alloc_with_merge,
            "merge should slash allocations: {} vs {}",
            row.alloc_without_merge,
            row.alloc_with_merge
        );
        assert!(row.alive_without_merge <= 64, "GC keeps alive counts tiny");
        assert!(row.alive_with_merge <= 64);
    }

    #[test]
    fn render_produces_a_row_per_workload() {
        let w = velodrome_workloads::build("philo", 1).unwrap();
        let rows = vec![measure(&w, 1)];
        let text = render(&rows);
        assert!(text.contains("philo"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn exclusion_spec_excludes_truth_labels() {
        let w = velodrome_workloads::build("multiset", 1).unwrap();
        let trace = w.run_round_robin();
        let spec = exclusion_spec(&w, &trace);
        for (_, op) in trace.iter() {
            if let Op::Begin { l, .. } = op {
                let name = trace.names().label(l);
                assert_eq!(spec.should_check(l), !w.is_non_atomic(&name), "{name}");
            }
        }
    }
}
