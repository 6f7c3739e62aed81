//! Table-driven checks of the backend registry from outside the CLI crate:
//! every entry of [`BACKENDS`] runs through the CLI and through the bench
//! driver with the same warnings, runs under `check-batch`, and accepts
//! `--metrics-out` (for `check` and `check-batch`) exactly when it is
//! metered, writing snapshots that pass `metrics-verify`. Name uniqueness,
//! `lookup` round-trips and `USAGE` coverage are unit tests of the CLI
//! crate.

use std::path::PathBuf;
use velodrome_cli::backend::{Settings, BACKENDS};
use velodrome_cli::{execute, CliError, CliErrorKind};

fn run(args: &[&str]) -> Result<String, CliError> {
    let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
    execute(&args)
}

/// A fresh scratch directory holding `corpus/jbb.json`, a recorded `jbb`
/// trace; returns the directory and the trace path.
fn recorded_jbb(test: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("velodrome-backend-registry-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = dir.join("corpus");
    std::fs::create_dir_all(&corpus).unwrap();
    let trace_path = corpus.join("jbb.json");
    run(&["record", "jbb", &format!("--out={}", trace_path.display())]).unwrap();
    (dir, trace_path)
}

#[test]
fn bench_backends_round_trip_and_are_cli_addressable() {
    let (dir, trace_path) = recorded_jbb("bench");
    let trace_file = trace_path.to_str().unwrap();
    let trace =
        velodrome_events::read_json_trace(std::fs::File::open(&trace_path).unwrap()).unwrap();
    for backend in BACKENDS {
        let name = backend.name;
        let cli = run(&["trace", trace_file, &format!("--backend={name}"), "--json"])
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let bench = velodrome_bench::run_backend(name, &trace, &Settings::default());
        assert_eq!(
            cli,
            format!(
                "{}\n",
                serde_json::to_string_pretty(&bench.warnings).unwrap()
            ),
            "{name}: CLI and bench driver disagree"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_accepts_every_bench_backend_on_a_real_run() {
    let (dir, trace_path) = recorded_jbb("cli");
    let corpus = trace_path.parent().unwrap().to_str().unwrap().to_string();
    for backend in BACKENDS {
        let name = backend.name;
        let flag = format!("--backend={name}");
        let out = run(&["check-batch", &corpus, "--jobs=1", &flag])
            .unwrap_or_else(|e| panic!("check-batch {flag}: {e}"));
        assert!(!out.is_empty(), "check-batch {flag} printed nothing");

        let check_metrics = dir.join(format!("{name}-check.jsonl"));
        let batch_metrics = dir.join(format!("{name}-batch.jsonl"));
        let check = run(&[
            "check",
            "jbb",
            &flag,
            &format!("--metrics-out={}", check_metrics.display()),
        ]);
        let batch = run(&[
            "check-batch",
            &corpus,
            "--jobs=1",
            &flag,
            &format!("--metrics-out={}", batch_metrics.display()),
        ]);
        for (command, result, metrics) in [
            ("check", check, check_metrics),
            ("check-batch", batch, batch_metrics),
        ] {
            if backend.metered {
                let out = result.unwrap_or_else(|e| panic!("{command} {flag}: {e}"));
                if command == "check" {
                    assert!(out.contains("events analyzed"), "{flag}: {out}");
                }
                run(&["metrics-verify", metrics.to_str().unwrap()])
                    .unwrap_or_else(|e| panic!("{command} {flag}: {e}"));
            } else {
                let e = result.expect_err(&format!("{command} {flag} accepted --metrics-out"));
                assert_eq!(e.kind, CliErrorKind::Usage, "{command} {flag}: {e}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
