//! The traced run: times the public function of every layer from outside.
//!
//! ```text
//! perfbench-layers --workload NAME --seed N --seconds S --dir DIR [--small]
//! ```
//!
//! `--small` runs on the tiny inputs the package's tests use. It generates
//! the workload's inputs (as `perfbench-gen inputs` does, with
//! `sim.generate` / `events.encode` spans), then repeats, for at least `S`
//! seconds, one iteration of: the CLI entry point on the inputs, and for
//! every input file decode → validate → dispatch → screen → engine →
//! hybrid. Every call is one span. Work runs on one thread at a time (the
//! corpus's CLI entry is `check-batch --jobs=1`), so a counting allocator
//! can price each span's peak heap without contention; the untimed runs
//! never use it. Spans go to `DIR/spans.jsonl` when the
//! run ends; the last stdout line is a JSON object with the per-layer
//! metrics, the ledger, and the checks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use velodrome::{HybridConfig, HybridVelodrome, Velodrome, VelodromeConfig};
use velodrome_events::Trace;
use velodrome_monitor::{run_tool, EmptyTool, Warning};
use velodrome_perfbench::spans::{HeapProbe, Tracer};
use velodrome_perfbench::{arg, generate, inputs_dir, layer, write_manifest, Expect, Input, Sizes};
use velodrome_vclock::AeroDrome;

/// Counts live heap bytes and their high-water mark. The counters are
/// statistics that publish no other data, so `Relaxed` suffices.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only read
// the layout sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from the caller, who upholds `alloc_zeroed`'s
        // contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller, who upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded from the caller, who upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const HEAP: HeapProbe = HeapProbe {
    live: || LIVE.load(Ordering::Relaxed),
    peak: || PEAK.load(Ordering::Relaxed),
    set_peak: |v| PEAK.store(v, Ordering::Relaxed),
};

/// Counts from one iteration, summed over its input files (peaks take the
/// maximum). They repeat exactly from iteration to iteration.
#[derive(Debug, Default)]
struct Counts {
    events: u64,
    bytes: u64,
    screen_joins: u64,
    screen_epoch_hits: u64,
    edges_added: u64,
    edges_elided: u64,
    epoch_hits: u64,
    nodes_allocated: u64,
    max_alive: u64,
    cycles_detected: u64,
    graph_ops: u64,
    warnings: u64,
    hybrid_escalated_at: u64,
    hybrid_buffered_peak: u64,
}

/// Correctness tallies across the whole run.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

fn messages(warnings: &[Warning]) -> impl Iterator<Item = &str> {
    warnings.iter().map(|w| w.message.as_str())
}

/// The engine configuration `velodrome trace` uses by default.
fn engine_config(trace: &Trace) -> VelodromeConfig {
    VelodromeConfig {
        names: trace.names().clone(),
        ..VelodromeConfig::default()
    }
}

/// Runs every layer on one input file, one span per call, and checks the
/// verdicts against the reference.
fn layers_on_file(
    t: &mut Tracer,
    path: &Path,
    input: &Input,
    expect: &Expect,
    counts: &mut Counts,
    checks: &mut Checks,
) {
    let trace = match t.span(layer::DECODE, |_| velodrome_perfbench::decode_file(path)) {
        Ok(trace) => trace,
        Err(e) => {
            checks.record(false, || format!("{}: decode failed: {e}", input.file));
            return;
        }
    };
    let n = trace.len() as u64;
    checks.record(n == input.events as u64, || {
        format!("{}: decoded {n} events, wrote {}", input.file, input.events)
    });
    counts.events += n;
    counts.bytes += input.bytes;

    let valid = t.span(layer::VALIDATE, |_| {
        velodrome_events::semantics::validate(&trace)
    });
    checks.record(valid.is_ok(), || {
        format!("{}: ill-formed: {valid:?}", input.file)
    });

    t.span(layer::DISPATCH, |_| {
        let mut tool = EmptyTool::new();
        run_tool(&mut tool, &trace);
        black_box(tool.ops_seen())
    });

    let screen = t.span(layer::SCREEN, |_| {
        let mut screen = AeroDrome::new();
        run_tool(&mut screen, &trace);
        screen.stats()
    });
    counts.screen_joins += screen.joins;
    counts.screen_epoch_hits += screen.epoch_hits;

    let (warnings, stats) = t.span(layer::ENGINE, |_| {
        let mut engine = Velodrome::with_config(engine_config(&trace));
        let warnings = run_tool(&mut engine, &trace);
        (warnings, engine.stats())
    });
    checks.record(expect.holds(messages(&warnings)), || {
        format!(
            "{}: engine warnings miss the reference {expect:?}",
            input.file
        )
    });
    counts.edges_added += stats.edges_added;
    counts.edges_elided += stats.edges_elided;
    counts.epoch_hits += stats.epoch_hits;
    counts.nodes_allocated += stats.nodes_allocated;
    counts.max_alive = counts.max_alive.max(stats.max_alive);
    counts.cycles_detected += stats.cycles_detected;
    counts.graph_ops += stats.graph_ops();
    counts.warnings += warnings.len() as u64;

    let (hybrid_warnings, hybrid) = t.span(layer::HYBRID, |_| {
        let mut checker = HybridVelodrome::with_config(HybridConfig {
            engine: engine_config(&trace),
            max_window: 0,
            verdict_only: false,
        });
        let warnings = run_tool(&mut checker, &trace);
        (warnings, checker.stats())
    });
    checks.record(messages(&hybrid_warnings).eq(messages(&warnings)), || {
        format!("{}: hybrid warnings differ from the engine's", input.file)
    });
    counts.hybrid_escalated_at += hybrid.escalated_at.map_or(n, |at| at as u64);
    counts.hybrid_buffered_peak = counts.hybrid_buffered_peak.max(hybrid.buffered_peak);
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let workload = arg(args, "--workload").ok_or("missing --workload")?;
    let seed: u64 = arg(args, "--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|_| "bad --seed")?;
    let seconds: f64 = arg(args, "--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|_| "bad --seconds")?;
    let dir = PathBuf::from(arg(args, "--dir").ok_or("missing --dir")?);
    let sizes = if args.iter().any(|a| a == "--small") {
        Sizes::SMALL
    } else {
        Sizes::FULL
    };

    let mut t = Tracer::new(Some(HEAP));
    let inputs = t
        .span("bench.setup", |t| generate(&workload, seed, sizes, &dir, t))
        .map_err(|e| format!("generating {workload}: {e}"))?;
    write_manifest(&dir, &inputs).map_err(|e| format!("writing manifest: {e}"))?;
    let expects = velodrome_perfbench::write_references(&dir, &inputs)?;

    let inputs_path = inputs_dir(&dir);
    let cli_args: Vec<String> = if workload == "corpus-batch" {
        vec![
            "check-batch".into(),
            inputs_path.display().to_string(),
            "--jobs=1".into(),
            format!("--report={}", dir.join("layers-report.jsonl").display()),
        ]
    } else {
        vec![
            "trace".into(),
            inputs_path.join(&inputs[0].file).display().to_string(),
        ]
    };

    let mut checks = Checks::default();
    let mut counts = Counts::default();
    let mut iterations = 0u64;
    let budget = Duration::from_secs_f64(seconds);
    let wall = Instant::now();
    let root = t.spans().len();
    t.span("bench.layers", |t| loop {
        counts = Counts::default();
        t.span("bench.iteration", |t| {
            let cli = t.span(layer::CLI, |_| velodrome_cli::execute(&cli_args));
            checks.record(cli.is_ok(), || format!("CLI entry failed: {cli:?}"));
            for (input, expect) in inputs.iter().zip(&expects) {
                let path = inputs_path.join(&input.file);
                layers_on_file(t, &path, input, expect, &mut counts, &mut checks);
            }
        });
        iterations += 1;
        if wall.elapsed() >= budget {
            break;
        }
    });
    let wall_ns = wall.elapsed().as_nanos() as u64;
    t.write_jsonl(&dir.join("spans.jsonl"))
        .map_err(|e| format!("writing spans: {e}"))?;

    // Per-layer self time, and the ledger: self times of every span under
    // the root plus the root's own (unattributed) time give the traced
    // wall time.
    let own = t.self_times();
    let spans = t.spans();
    let mut self_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut peak_heap: BTreeMap<&str, u64> = BTreeMap::new();
    let mut cli_ms = Vec::new();
    for (s, &own_ns) in spans.iter().zip(&own) {
        *self_ns.entry(s.name).or_default() += own_ns;
        let p = peak_heap.entry(s.name).or_default();
        *p = (*p).max(s.peak_heap.unwrap_or(0));
        if s.name == layer::CLI {
            cli_ms.push(s.duration_ns() as f64 / 1e6);
        }
    }
    let traced_ns = spans[root].duration_ns();
    let attributed: u64 = own[root + 1..]
        .iter()
        .zip(&spans[root + 1..])
        .filter(|(_, s)| !s.name.starts_with("bench."))
        .map(|(&o, _)| o)
        .sum();
    let unattributed = traced_ns - attributed;
    let ledger_sum: u64 = own[root..].iter().sum();
    let ledger_closes = ledger_sum == traced_ns
        && traced_ns <= wall_ns
        && wall_ns - traced_ns < 1_000_000 + wall_ns / 1000;
    checks.record(ledger_closes, || {
        format!(
            "ledger: self times sum to {ledger_sum} ns, traced {traced_ns} ns, wall {wall_ns} ns"
        )
    });

    let layer_ns = |name: &str| self_ns.get(name).copied().unwrap_or(0);
    let heap_mb = |name: &str| peak_heap.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let run_events = counts.events * iterations;
    let per_event = |name: &str| layer_ns(name) as f64 / run_events as f64;
    let setup_events: u64 = inputs.iter().map(|i| i.events as u64).sum();
    let cli_total_ns: u64 = spans
        .iter()
        .filter(|s| s.name == layer::CLI)
        .map(|s| s.duration_ns())
        .sum();
    let c = &counts;
    let metrics: Vec<(&str, f64)> = vec![
        ("events.decode.ns_per_event", per_event(layer::DECODE)),
        (
            "events.decode.mb_per_s",
            (c.bytes * iterations) as f64 / 1e6 / (layer_ns(layer::DECODE) as f64 / 1e9),
        ),
        ("events.decode.peak_heap_mb", heap_mb(layer::DECODE)),
        ("events.validate.ns_per_event", per_event(layer::VALIDATE)),
        ("monitor.dispatch.ns_per_event", per_event(layer::DISPATCH)),
        ("vclock.screen.ns_per_event", per_event(layer::SCREEN)),
        (
            "vclock.screen.epoch_hit_ratio",
            ratio(c.screen_epoch_hits, c.screen_joins),
        ),
        ("vclock.screen.joins", c.screen_joins as f64),
        ("core.engine.ns_per_event", per_event(layer::ENGINE)),
        ("core.engine.edges_added", c.edges_added as f64),
        ("core.engine.edges_elided", c.edges_elided as f64),
        (
            "core.engine.elision_ratio",
            ratio(c.edges_elided, c.edges_added + c.edges_elided),
        ),
        ("core.engine.epoch_hits", c.epoch_hits as f64),
        ("core.engine.nodes_allocated", c.nodes_allocated as f64),
        ("core.engine.max_alive", c.max_alive as f64),
        ("core.engine.cycles_detected", c.cycles_detected as f64),
        ("core.engine.graph_ops", c.graph_ops as f64),
        ("core.engine.warnings", c.warnings as f64),
        ("core.hybrid.ns_per_event", per_event(layer::HYBRID)),
        ("core.hybrid.escalated_at", c.hybrid_escalated_at as f64),
        ("core.hybrid.buffered_peak", c.hybrid_buffered_peak as f64),
        ("core.hybrid.peak_heap_mb", heap_mb(layer::HYBRID)),
        (
            "cli.trace.unattributed_ns_per_event",
            (cli_total_ns as f64 - layer_ns(layer::DECODE) as f64 - layer_ns(layer::ENGINE) as f64)
                / run_events as f64,
        ),
        (
            "sim.generate.ns_per_event",
            layer_ns(layer::GENERATE) as f64 / setup_events as f64,
        ),
        (
            "events.encode.ns_per_event",
            layer_ns(layer::ENCODE) as f64 / setup_events as f64,
        ),
        ("events.encode.peak_heap_mb", heap_mb(layer::ENCODE)),
        (
            "bench.trace.unattributed_share",
            unattributed as f64 / traced_ns as f64,
        ),
    ];
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect();
    let self_ms: Vec<String> = self_ns
        .iter()
        .map(|(name, ns)| format!("\"{name}\":{}", *ns as f64 / 1e6))
        .collect();
    let notes: Vec<String> = checks
        .notes
        .iter()
        .map(|n| velodrome_perfbench::json_string(n))
        .collect();
    Ok(format!(
        "{{\"attempted\":{},\"failed\":{},\"notes\":[{}],\"iterations\":{iterations},\
         \"spans\":{},\"traced_ms\":{},\"unattributed_ms\":{},\"wall_ms\":{},\
         \"cli_traced_ms\":{},\"self_ms\":{{{}}},\"metrics\":{{{}}}}}\n",
        checks.attempted,
        checks.failed,
        notes.join(","),
        spans.len(),
        traced_ns as f64 / 1e6,
        unattributed as f64 / 1e6,
        wall_ns as f64 / 1e6,
        median(&mut cli_ms),
        self_ms.join(","),
        metrics.join(","),
    ))
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
