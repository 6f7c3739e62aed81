//! Writes a workload's inputs, or their references.
//!
//! ```text
//! perfbench-gen inputs --workload NAME --seed N --dir DIR
//! perfbench-gen reference --dir DIR
//! ```
//!
//! `inputs` is the benchmark's timed set-up: it generates every trace with
//! the repository's own functions and encodes it as `record` / `convert`
//! would, into `DIR/inputs/`, plus `DIR/manifest.tsv`. `reference` reads
//! the manifest back and writes `DIR/reference.json`, kept out of the
//! set-up's timing.

use std::path::PathBuf;
use std::process::ExitCode;
use velodrome_perfbench::{arg, generate, read_manifest, spans::Tracer, write_manifest, Sizes};

fn run(args: &[String]) -> Result<String, String> {
    let dir = PathBuf::from(arg(args, "--dir").ok_or("missing --dir")?);
    match args.first().map(String::as_str) {
        Some("inputs") => {
            let workload = arg(args, "--workload").ok_or("missing --workload")?;
            let seed: u64 = arg(args, "--seed")
                .ok_or("missing --seed")?
                .parse()
                .map_err(|_| "bad --seed")?;
            let inputs = generate(&workload, seed, Sizes::FULL, &dir, &mut Tracer::new(None))
                .and_then(|inputs| write_manifest(&dir, &inputs).map(|()| inputs))
                .map_err(|e| format!("generating {workload}: {e}"))?;
            let events: usize = inputs.iter().map(|i| i.events).sum();
            let bytes: u64 = inputs.iter().map(|i| i.bytes).sum();
            Ok(format!(
                "{} traces, {events} events, {bytes} bytes\n",
                inputs.len()
            ))
        }
        Some("reference") => {
            let inputs = read_manifest(&dir).map_err(|e| format!("reading manifest: {e}"))?;
            velodrome_perfbench::write_references(&dir, &inputs)?;
            Ok(format!("{} references\n", inputs.len()))
        }
        _ => Err("usage: perfbench-gen inputs|reference --dir DIR [...]".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
