//! Regenerates the Section 6 defect-injection study (elevator and colt).
//!
//! Usage: `cargo run --release -p velodrome-bench --bin injection [--scale=2] [--seeds=10] [--pause=400]`

use velodrome_bench::{arg_u64, injection};

fn main() {
    let scale = arg_u64("scale", 2) as u32;
    let seeds = arg_u64("seeds", 10);
    let pause = arg_u64("pause", 400);
    eprintln!("Injection study: scale={scale}, {seeds} seeds per mutant, pause={pause} steps");
    let results = injection::run_injection(scale, seeds, pause);
    println!("{}", injection::render(&results));
    println!(
        "{}",
        serde_json::to_string_pretty(&results).expect("results serialize")
    );
}
