//! Tests of the benchmark itself: its inputs are a pure function of the
//! seed, its names fit the benchmark contract, and the traced run closes
//! its ledger and reports exactly the per-layer metrics BENCHMARK.json
//! lists.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use velodrome_perfbench::{generate, inputs_dir, spans::Tracer, Sizes, WORKLOADS};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every input file's name and bytes, in name order.
fn snapshot(workload: &str, seed: u64, dir: &Path) -> Vec<(String, Vec<u8>)> {
    let inputs = generate(workload, seed, Sizes::SMALL, dir, &mut Tracer::new(None)).unwrap();
    inputs
        .iter()
        .map(|i| {
            let bytes = std::fs::read(inputs_dir(dir).join(&i.file)).unwrap();
            assert_eq!(bytes.len() as u64, i.bytes, "{}", i.file);
            (i.file.clone(), bytes)
        })
        .collect()
}

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    for workload in WORKLOADS {
        let a = snapshot(workload, 7, &scratch(&format!("same-{workload}-a")));
        let b = snapshot(workload, 7, &scratch(&format!("same-{workload}-b")));
        assert!(!a.is_empty(), "{workload} wrote no inputs");
        assert!(a == b, "{workload}: seed 7 gave different inputs");
        let c = snapshot(workload, 8, &scratch(&format!("same-{workload}-c")));
        assert!(a != c, "{workload}: seeds 7 and 8 gave the same inputs");
    }
}

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec.get_key(key)
        .as_array()
        .unwrap()
        .iter()
        .map(|m| m.get_key("name").as_str().unwrap().to_owned())
        .collect()
}

fn is_valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_and_metric_name_is_well_formed_and_unique() {
    let spec = spec();
    let mut all = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        all.extend(names(&spec, key));
    }
    for name in &all {
        assert!(is_valid_name(name), "bad name {name:?}");
    }
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "duplicate names in BENCHMARK.json");
    assert_eq!(names(&spec, "workloads"), WORKLOADS);
}

#[test]
fn the_traced_run_checks_out_on_every_workload() {
    let per_layer = names(&spec(), "per_layer");
    for workload in WORKLOADS {
        let dir = scratch(&format!("layers-{workload}"));
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench-layers"))
            .args([
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0",
                "--small",
            ])
            .arg("--dir")
            .arg(&dir)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let result: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(
            result.get_key("failed").as_u64(),
            Some(0),
            "{workload}: {stdout}"
        );
        // The ledger closes: layer self times plus the unattributed rest
        // are the traced wall time.
        let self_ms = result.get_key("self_ms").as_object().unwrap();
        let layers: f64 = self_ms
            .iter()
            .filter(|(name, _)| !name.starts_with("bench."))
            .filter(|(name, _)| !matches!(name.as_str(), "sim.generate" | "events.encode"))
            .map(|(_, v)| v.as_f64().unwrap())
            .sum();
        let unattributed = result.get_key("unattributed_ms").as_f64().unwrap();
        let traced = result.get_key("traced_ms").as_f64().unwrap();
        assert!(
            ((layers + unattributed) - traced).abs() < 1e-3,
            "{workload}: {stdout}"
        );
        // Every metric it reports is a per-layer metric of BENCHMARK.json,
        // and a number.
        for (name, value) in result.get_key("metrics").as_object().unwrap().iter() {
            assert!(
                per_layer.contains(name),
                "{workload}: unlisted metric {name}"
            );
            assert!(
                value.as_f64().is_some_and(f64::is_finite),
                "{workload}: {name}"
            );
        }
        assert!(dir.join("spans.jsonl").exists());
    }
}
