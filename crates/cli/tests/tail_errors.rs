//! Trace files whose defect shows only after the last operation has been
//! decoded: bytes after the end of the trace, a synthesized index past the
//! operation count, or (in JSON, where `names` follows `ops`) a missing
//! symbol table. `trace` and `check-batch` stream operations into the
//! backend as they are decoded, so by the time the defect shows the backend
//! has analyzed the whole trace; the file must still be rejected with the
//! decoder's message and byte offset, and no verdict or final metrics
//! snapshot may escape.
//!
//! The same holds for the first operation naming a thread id at or over
//! `MAX_THREADS` (2^16): analyses index per-thread tables by id, so such an
//! id is malformed input, rejected before any table is sized by it.

use std::path::{Path, PathBuf};
use velodrome_cli::backend::BACKENDS;
use velodrome_cli::{execute, CliError, CliErrorKind};
use velodrome_events::{trace_to_vbt, Trace, TraceBuilder};

fn run(args: &[&str]) -> Result<String, CliError> {
    let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
    execute(&args)
}

/// The paper's Figure 1 read-modify-write violation: five operations, one
/// warning from every atomicity backend if it were accepted.
fn rmw_trace() -> Trace {
    let mut b = TraceBuilder::new();
    b.begin("T1", "inc").read("T1", "x");
    b.write("T2", "x");
    b.write("T1", "x").end("T1");
    b.finish()
}

/// `(file name, contents, expected decoder error)` for every defect that
/// only the end of the stream reveals.
fn tail_defects() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    let trace = rmw_trace();
    let json = trace.to_json();
    let vbt = trace_to_vbt(&trace);
    // The synthesized-index count sits right after the string tables: the
    // encoding of the same symbol table with no operations ends with that
    // count (0) and the end-of-trace sentinel.
    let mut header_only = Trace::new();
    *header_only.names_mut() = trace.names().clone();
    let synth_at = trace_to_vbt(&header_only).len() - 2;
    assert_eq!(vbt[synth_at], 0, "no synthesized indices yet");
    let mut vbt_synth = vbt[..synth_at].to_vec();
    vbt_synth.extend_from_slice(&[1, 5]); // one index: 5, with 5 ops
    vbt_synth.extend_from_slice(&vbt[synth_at + 1..]);
    let names_at = json.find(",\"names\"").expect("names follow ops");
    vec![
        (
            "vbt_trailing.vbt",
            [&vbt[..], &[0x42]].concat(),
            "byte 43: trailing data after end-of-trace frame",
        ),
        (
            "vbt_synthesized.vbt",
            vbt_synth,
            "byte 44: synthesized index 5 out of bounds for 5 ops",
        ),
        (
            "json_synthesized.json",
            format!("{},\"synthesized\":[5]}}", &json[..json.len() - 1]).into_bytes(),
            "byte 227: synthesized index 5 out of bounds for 5 ops",
        ),
        (
            "json_no_names.json",
            format!("{}}}", &json[..names_at]).into_bytes(),
            "byte 120: trace object is missing `names`",
        ),
        (
            "json_trailing.json",
            format!("{json} x").into_bytes(),
            "byte 210: trailing data after trace object",
        ),
    ]
}

/// `(file name, contents, expected decoder error)` for one operation
/// naming a thread id out of range, as `t` or as a fork/join `child`.
fn huge_thread_ids() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    let json = |op: &str| {
        format!(
            r#"{{"ops":[{op}],"names":{{"threads":{{}},"vars":{{}},"locks":{{}},"labels":{{}}}}}}"#
        )
        .into_bytes()
    };
    // Empty string tables, no synthesized indices, one frame holding `op`.
    let vbt = |op: &[u8]| {
        let mut bytes = b"VBTF\x01\0\0\0\0\0".to_vec();
        bytes.extend_from_slice(&[op.len() as u8 + 1, 1]);
        bytes.extend_from_slice(op);
        bytes.push(0);
        bytes
    };
    vec![
        (
            "json_huge_t.json",
            json(r#"{"Write":{"t":3000000000,"x":0}}"#),
            "byte 32: thread id 3000000000 out of range (must be below 65536)",
        ),
        (
            "json_huge_child.json",
            json(r#"{"Fork":{"t":0,"child":65536}}"#),
            "byte 36: thread id 65536 out of range (must be below 65536)",
        ),
        // Write, t = 3,000,000,000 as a five-byte varint, x = 0.
        (
            "vbt_huge_t.vbt",
            vbt(&[1, 0x80, 0xbc, 0xc1, 0x96, 0x0b, 0]),
            "byte 18: thread id 3000000000 out of range (must be below 65536)",
        ),
        // Join, t = 0, child = 65,536.
        (
            "vbt_huge_child.vbt",
            vbt(&[7, 0, 0x80, 0x80, 0x04]),
            "byte 17: thread id 65536 out of range (must be below 65536)",
        ),
    ]
}

/// Writes `defects` into a fresh directory named for `test`.
fn write_defects(
    test: &str,
    defects: Vec<(&str, Vec<u8>, &'static str)>,
) -> (PathBuf, Vec<(PathBuf, &'static str)>) {
    let dir = std::env::temp_dir().join(format!("velodrome-cli-tail-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let files = defects
        .into_iter()
        .map(|(name, bytes, reason)| {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            (path, reason)
        })
        .collect();
    (dir, files)
}

fn expected_message(path: &Path, reason: &str) -> String {
    format!("malformed trace file {}: {reason}", path.display())
}

/// `trace FILE` exits 4 with the decoder's message on every backend.
fn assert_trace_rejects(files: &[(PathBuf, &str)]) {
    for (path, reason) in files {
        let file = path.to_str().unwrap();
        for backend in BACKENDS {
            let flag = format!("--backend={}", backend.name);
            let e = run(&["trace", file, &flag])
                .expect_err(&format!("{file} {flag}: a verdict escaped"));
            assert_eq!(e.kind, CliErrorKind::MalformedInput, "{file} {flag}: {e}");
            assert_eq!(e.exit_code(), 4);
            assert_eq!(e.message, expected_message(path, reason), "{flag}");
        }
    }
}

#[test]
fn trace_rejects_tail_defects_on_every_backend() {
    let (dir, files) = write_defects("trace", tail_defects());
    assert_trace_rejects(&files);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_rejects_huge_thread_ids_on_every_backend() {
    let (dir, files) = write_defects("huge-trace", huge_thread_ids());
    assert_trace_rejects(&files);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metered_trace_writes_no_final_snapshot_for_tail_defects() {
    let (dir, files) = write_defects("metrics", tail_defects());
    for (path, reason) in &files {
        let file = path.to_str().unwrap();
        for backend in BACKENDS.iter().filter(|b| b.metered) {
            let metrics = dir.join(format!("{}.jsonl", backend.name));
            let _ = std::fs::remove_file(&metrics);
            let e = run(&[
                "trace",
                file,
                &format!("--backend={}", backend.name),
                &format!("--metrics-out={}", metrics.display()),
                "--metrics-interval=1",
            ])
            .unwrap_err();
            assert_eq!(e.message, expected_message(path, reason));
            // One snapshot per operation at most: the final one, taken
            // after the end of the trace, is never written.
            let lines = std::fs::read_to_string(&metrics)
                .map(|text| text.lines().count())
                .unwrap_or(0);
            assert!(
                lines <= rmw_trace().len(),
                "{file} {}: {lines} snapshots",
                backend.name
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_batch_reports_tail_defects_as_errors() {
    let (dir, files) = write_defects("batch", tail_defects());
    let report = dir.join("report.jsonl");
    let out = run(&[
        "check-batch",
        dir.to_str().unwrap(),
        "--jobs=2",
        &format!("--report={}", report.display()),
    ])
    .unwrap();
    assert!(out.contains("5 failed"), "{out}");
    let text = std::fs::read_to_string(&report).unwrap();
    let lines: Vec<serde_json::Value> = text
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .collect();
    for (path, reason) in &files {
        let line = lines
            .iter()
            .find(|l| l["path"].as_str() == Some(&*path.display().to_string()))
            .unwrap_or_else(|| panic!("{} is missing from the report", path.display()));
        assert_eq!(line["status"], "error", "{line:?}");
        assert_eq!(
            line["error"].as_str(),
            Some(&*expected_message(path, reason)),
            "{line:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_batch_reports_a_huge_thread_id_beside_a_good_trace() {
    let (dir, files) = write_defects("huge-batch", huge_thread_ids());
    let (bad, reason) = &files[0];
    for (path, _) in &files[1..] {
        std::fs::remove_file(path).unwrap();
    }
    let good = dir.join("good.json");
    std::fs::write(&good, rmw_trace().to_json()).unwrap();
    let report = dir.join("report.jsonl");
    let out = run(&[
        "check-batch",
        dir.to_str().unwrap(),
        &format!("--report={}", report.display()),
    ])
    .unwrap();
    assert!(out.contains("1 failed"), "{out}");
    let text = std::fs::read_to_string(&report).unwrap();
    let lines: Vec<serde_json::Value> = text
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .collect();
    let line = |path: &Path| {
        lines
            .iter()
            .find(|l| l["path"].as_str() == Some(&*path.display().to_string()))
            .unwrap_or_else(|| panic!("{} is missing from the report", path.display()))
    };
    assert_eq!(line(bad)["status"], "error");
    assert_eq!(
        line(bad)["error"].as_str(),
        Some(&*expected_message(bad, reason))
    );
    assert_eq!(line(&good)["status"], "ok");
    std::fs::remove_dir_all(&dir).ok();
}
