//! Benchmark and experiment harness regenerating the paper's evaluation.
//!
//! * [`run_backend`] — runs any back-end of the CLI's registry
//!   ([`velodrome_cli::backend::BACKENDS`]) by name;
//! * [`table1`] — analysis overhead and node statistics (paper Table 1);
//! * [`table2`] — warning counts and false-alarm classification against
//!   ground truth (paper Table 2);
//! * [`injection`] — the defect-injection / adversarial-scheduling study
//!   (Section 6);
//! * [`report`] — plain-text table rendering.
//!
//! Binaries `table1`, `table2`, `injection`, `policies`, `graph_stats`,
//! `gc_timeline`, and `stress` regenerate the paper's tables and studies;
//! `table1`'s overhead column is the paper's slowdown relative to the
//! Empty tool. The `chaos` binary (module [`chaos`]) replays a fixed-seed
//! trace under the built-in fault-plan set and asserts the fault-tolerance
//! contract.
//! `cargo bench -p velodrome-bench` runs the Criterion `ablation` bench
//! (merge and GC on/off). Timing the checker end to end and per layer is
//! the job of `perfbench/`, which generates its fan-in workload with
//! [`hotpath::fanin_stress_trace`].

pub mod chaos;
pub mod hotpath;
pub mod injection;
pub mod report;
pub mod table1;
pub mod table2;

use velodrome_cli::backend::{lookup, Analysis, Settings};
use velodrome_events::Trace;

/// Runs the registered backend `name` over the trace. Panics on an
/// unregistered name or a failed run; bench callers pass fixed names and
/// settings without a metrics file, so neither happens.
pub fn run_backend(name: &str, trace: &Trace, settings: &Settings) -> Analysis {
    let backend = lookup(name).unwrap_or_else(|| panic!("no backend named `{name}`"));
    (backend.run)(trace.into(), settings).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Reads a `NAME=value` style `u64` argument from the process arguments
/// (`--scale=4`), falling back to `default`.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    let prefix = format!("--{name}=");
    std::env::args()
        .find_map(|a| a.strip_prefix(&prefix).and_then(|v| v.parse().ok()))
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    #[test]
    fn arg_parsing_falls_back_to_default() {
        assert_eq!(super::arg_u64("nonexistent-flag", 7), 7);
    }
}
