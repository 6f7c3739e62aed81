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

/// Reads a `--name=value` `u64` argument from the process arguments
/// (`--scale=4`), falling back to `default` when it is absent. A malformed
/// value exits with code 2, naming the flag.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    parse_arg_u64(std::env::args(), name, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The parsing half of [`arg_u64`]: the value of the first `--name=` in
/// `args`, `default` if there is none, an error if it is not a `u64`.
pub fn parse_arg_u64(
    args: impl IntoIterator<Item = impl AsRef<str>>,
    name: &str,
    default: u64,
) -> Result<u64, String> {
    let prefix = format!("--{name}=");
    let value = args
        .into_iter()
        .find_map(|a| a.as_ref().strip_prefix(&prefix).map(str::to_owned));
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: expected a non-negative integer, got `{v}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_arg_u64;

    #[test]
    fn arg_parsing_falls_back_to_default() {
        assert_eq!(super::arg_u64("nonexistent-flag", 7), 7);
    }

    #[test]
    fn arg_parsing_rejects_a_malformed_value() {
        assert_eq!(parse_arg_u64(["bin", "--scale=4"], "scale", 2), Ok(4));
        assert_eq!(parse_arg_u64(["bin", "--seeds=1"], "scale", 2), Ok(2));
        let err = parse_arg_u64(["bin", "--scale=abc", "--seeds=1"], "scale", 2).unwrap_err();
        assert!(err.contains("--scale") && err.contains("abc"), "{err}");
    }
}
