//! Regression tests: `velodrome trace FILE` holds memory bounded by the
//! analysis's live state, not by the length of the trace or by the size of
//! its thread ids.
//!
//! The CLI streams decoded operations straight into the backend, and the
//! engine's garbage collection keeps only live transactions, so a trace ten
//! times longer over the same symbol table must not raise peak heap. A
//! checker that first materializes the trace pays 12 bytes per operation:
//! about 21 MB more at 2M operations than at 200k. The vector-clock
//! backends index their clocks, and the engine its per-thread table, by
//! dense thread slot, so renumbering the threads of a trace to ids near the
//! 2^16 cap must not raise peak heap either; clocks sized by the raw id pay
//! 512 KB per clock there, and a table sized by it about 7 MB. Peak heap
//! is measured with a counting global allocator, as in the events crate's
//! `streaming_memory` test, rather than with OS RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use velodrome_events::{Label, Op, ThreadId, Trace, VarId, MAX_THREADS};

/// Counts live heap bytes and tracks the high-water mark.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The counters are process-wide: each test holds this for its whole run,
/// so no other test allocates while it measures.
static ONE_TEST: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                let cur = CURRENT.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                PEAK.fetch_max(cur, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const THREADS: u32 = 4;
const VARS: u32 = 16;

/// `ops` operations of back-to-back read-modify-write transactions over a
/// fixed symbol table: serializable, so the engine keeps a handful of live
/// nodes however long the trace runs.
fn rmw_trace(ops: usize) -> Trace {
    let mut trace: Trace = (0..ops)
        .map(|i| {
            let txn = (i / 4) as u32;
            let t = ThreadId::new(txn % THREADS);
            let x = VarId::new(txn % VARS);
            match i % 4 {
                0 => Op::Begin {
                    t,
                    l: Label::new(0),
                },
                1 => Op::Read { t, x },
                2 => Op::Write { t, x },
                _ => Op::End { t },
            }
        })
        .collect();
    let names = trace.names_mut();
    for t in 0..THREADS {
        names.name_thread(ThreadId::new(t), format!("worker{t}"));
    }
    for x in 0..VARS {
        names.name_var(VarId::new(x), format!("slot{x}"));
    }
    names.name_label(Label::new(0), "update");
    trace
}

/// Writes a trace of `ops` operations to `path` in the encoding its
/// extension names; the trace is dropped before this returns.
fn write_trace(path: &Path, ops: usize) {
    let trace = rmw_trace(ops);
    let file = std::io::BufWriter::new(std::fs::File::create(path).unwrap());
    if path.extension().is_some_and(|e| e == "vbt") {
        velodrome_events::write_vbt(file, &trace).unwrap();
    } else {
        velodrome_events::write_json_trace(file, &trace).unwrap();
    }
}

/// Peak heap growth while `velodrome trace FILE --backend=BACKEND` runs,
/// with its report.
fn trace_peak_heap(path: &Path, backend: &str) -> (usize, String) {
    let args = vec![
        "trace".to_string(),
        path.display().to_string(),
        format!("--backend={backend}"),
    ];
    let before = CURRENT.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = velodrome_cli::execute(&args).unwrap();
    (PEAK.load(Ordering::Relaxed).saturating_sub(before), out)
}

#[test]
fn trace_heap_does_not_grow_with_trace_length() {
    let _one = ONE_TEST.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join("velodrome-cli-trace-memory");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for ext in ["vbt", "json"] {
        let peaks: Vec<usize> = [200_000, 2_000_000]
            .into_iter()
            .map(|ops| {
                let path = dir.join(format!("rmw-{ops}.{ext}"));
                write_trace(&path, ops);
                let (peak, out) = trace_peak_heap(&path, "velodrome");
                assert!(out.contains("no warnings"), "{out}");
                std::fs::remove_file(&path).ok();
                peak
            })
            .collect();
        let growth = peaks[1].abs_diff(peaks[0]);
        assert!(
            growth < 1 << 20,
            "{ext}: peak heap {} bytes at 200k ops, {} bytes at 2M ops",
            peaks[0],
            peaks[1]
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

const TWIN_THREADS: u32 = 256;

/// `TWIN_THREADS` threads with ids `first..`, each running one transaction
/// that writes the same variable.
fn one_write_each(first: u32) -> Trace {
    let mut trace: Trace = (first..first + TWIN_THREADS)
        .flat_map(|id| {
            let t = ThreadId::new(id);
            [
                Op::Begin {
                    t,
                    l: Label::new(0),
                },
                Op::Write {
                    t,
                    x: VarId::new(0),
                },
                Op::End { t },
            ]
        })
        .collect();
    trace.names_mut().name_label(Label::new(0), "update");
    trace
}

#[test]
fn vector_clock_heap_does_not_grow_with_thread_ids() {
    let _one = ONE_TEST.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join("velodrome-cli-thread-id-memory");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let twins = [0, MAX_THREADS - TWIN_THREADS].map(|first| {
        let path = dir.join(format!("from-{first}.vbt"));
        let file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        velodrome_events::write_vbt(file, &one_write_each(first)).unwrap();
        path
    });
    for backend in ["hb-race", "aerodrome", "velodrome-hybrid", "velodrome"] {
        // A first run pays one-time allocations the twins must not see.
        trace_peak_heap(&twins[0], backend);
        let [(low, _), (high, _)] = twins.clone().map(|path| trace_peak_heap(&path, backend));
        assert!(
            high.abs_diff(low) * 10 <= low,
            "{backend}: peak heap {low} bytes with thread ids from 0, \
             {high} bytes with the same threads numbered up to {}",
            MAX_THREADS - 1
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
