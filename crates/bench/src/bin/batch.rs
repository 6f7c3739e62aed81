//! Batch-throughput benchmark: JSON-serial vs. VBT-parallel checking.
//!
//! Builds a twin corpus (every trace as both `.json` and `.vbt`), checks it
//! once serially through the streaming JSON reader and once through the
//! `check-batch` worker pool over the VBT twins, asserts the per-trace
//! warning fingerprints byte-identical, and writes `BENCH_batch.json`.
//!
//! Flags: `--traces=N` (corpus size, default 48), `--scale=K` (fan-in
//! trace size knob, default 24), `--seed=S` (default 1), `--jobs=N`
//! (parallel-leg pool size, default 4).

use velodrome_bench::arg_u64;
use velodrome_bench::batch::{build_corpus, run_json_serial, run_vbt_parallel, BatchBenchReport};

fn main() {
    let traces = arg_u64("traces", 48);
    let scale = arg_u64("scale", 24);
    let seed = arg_u64("seed", 1);
    let jobs = arg_u64("jobs", 4).max(1);
    let backend = "velodrome-hybrid";

    let dir = std::env::temp_dir().join(format!("velodrome-bench-batch-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = build_corpus(&dir, traces, scale, seed).expect("corpus builds");
    eprintln!(
        "corpus: {} traces, {} events, {} JSON bytes vs {} VBT bytes",
        corpus.entries.len(),
        corpus.events(),
        corpus.json_bytes,
        corpus.vbt_bytes
    );

    let serial = run_json_serial(&corpus, backend);
    eprintln!("json-serial:  {} ms", serial.millis);
    let parallel = run_vbt_parallel(&corpus, backend, jobs as usize);
    eprintln!("vbt-parallel: {} ms ({jobs} jobs)", parallel.millis);

    let outputs_identical = serial.fingerprints == parallel.fingerprints;
    assert!(
        outputs_identical,
        "parallel verdicts diverged from the serial baseline"
    );

    let events = corpus.events();
    let serial_eps = serial.events_per_sec(events);
    let parallel_eps = parallel.events_per_sec(events);
    let report = BatchBenchReport {
        corpus_traces: traces,
        corpus_events: events,
        seed,
        jobs,
        backend: backend.to_owned(),
        json_bytes: corpus.json_bytes,
        vbt_bytes: corpus.vbt_bytes,
        json_serial_millis: serial.millis,
        json_serial_events_per_sec: serial_eps,
        vbt_parallel_millis: parallel.millis,
        vbt_parallel_events_per_sec: parallel_eps,
        speedup: parallel_eps as f64 / serial_eps.max(1) as f64,
        outputs_identical,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_batch.json", &json).expect("BENCH_batch.json writes");
    eprintln!("wrote BENCH_batch.json (speedup {:.2}x)", report.speedup);
    let _ = std::fs::remove_dir_all(&dir);
}
