//! Regenerates the node-statistics columns of Table 1 in isolation
//! (Allocated / Max Alive, Without Merge vs With Merge).
//!
//! Usage: `cargo run --release -p velodrome-bench --bin graph_stats [--scale=8]`

use velodrome_bench::table1::exclusion_spec;
use velodrome_bench::{arg_u64, report, run_backend};
use velodrome_cli::backend::{Analysis, Settings};
use velodrome_telemetry::names;

fn main() {
    let scale = arg_u64("scale", 8) as u32;
    eprintln!("Graph statistics at scale={scale}");
    let mut rows = Vec::new();
    for w in velodrome_workloads::all(scale) {
        let trace = w.run_round_robin();
        let settings = Settings {
            spec: Some(exclusion_spec(&w, &trace)),
            ..Settings::default()
        };
        let without = run_backend("velodrome-nomerge", &trace, &settings);
        let with = run_backend("velodrome", &trace, &settings);
        let stat = |run: &Analysis, name: &str| run.stat(name).unwrap_or(0);
        rows.push(vec![
            w.name.to_string(),
            report::count(trace.len() as u64),
            report::count(stat(&without, names::ARENA_ALLOCATED)),
            report::count(stat(&without, names::ARENA_MAX_ALIVE)),
            report::count(stat(&with, names::ARENA_ALLOCATED)),
            report::count(stat(&with, names::ARENA_MAX_ALIVE)),
            report::count(stat(&with, names::ARENA_COLLECTED)),
        ]);
    }
    println!(
        "{}",
        report::table(
            &[
                "program",
                "events",
                "alloc w/o merge",
                "alive",
                "alloc w/ merge",
                "alive",
                "collected"
            ],
            &rows
        )
    );
}
