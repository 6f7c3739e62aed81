//! Command-line front end for the Velodrome checker.
//!
//! Mirrors the prototype's usage: "takes as input a compiled Java program
//! and a specification of which methods should be atomic, and reports an
//! error whenever it observes a non-serializable trace" — here the input is
//! a benchmark model or a recorded trace file.
//!
//! ```text
//! velodrome list
//! velodrome check <workload> [--scale=N] [--seed=S] [--backend=NAME] [--dot] [--adversarial]
//! velodrome record <workload> --out=FILE [--scale=N] [--seed=S]
//! velodrome trace <FILE> [--backend=NAME] [--dot]
//! velodrome oracle <FILE>
//! velodrome info <workload|FILE> [--scale=N] [--seed=S]
//! velodrome replay <workload> <FILE> [--scale=N]
//! velodrome compare <workload|FILE> [--scale=N] [--seed=S]
//! ```

pub mod backend;
pub mod batch;

use backend::{Analysis, Metrics, Settings, BACKENDS};
use std::fmt::Write as _;
use velodrome_events::{oracle, Trace, TraceStats};
use velodrome_sim::{run_program, RandomScheduler, WatchdogStats};
use velodrome_telemetry::Telemetry;
use velodrome_workloads::adversarial::adversarial_scheduler;

/// What went wrong, determining the process exit code. Scripts (and
/// `scripts/ci-gate.sh`) rely on the distinction: a malformed trace file
/// must be distinguishable from a missing one or a bad flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliErrorKind {
    /// Bad command line: unknown command/flag/workload/backend (exit 2).
    Usage,
    /// The file system failed us: unreadable or unwritable path (exit 3).
    Io,
    /// The input file was read but could not be parsed; the message names
    /// the file, the byte offset, and the reason (exit 4).
    MalformedInput,
}

impl CliErrorKind {
    /// Process exit code for this kind of error.
    pub fn exit_code(self) -> i32 {
        match self {
            Self::Usage => 2,
            Self::Io => 3,
            Self::MalformedInput => 4,
        }
    }
}

/// A user-facing error with a message suitable for stderr and a kind
/// determining the exit code.
#[derive(Debug)]
pub struct CliError {
    /// Classification, mapped to an exit code via [`CliErrorKind::exit_code`].
    pub kind: CliErrorKind,
    /// Human-readable diagnostic.
    pub message: String,
}

impl CliError {
    /// Process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        self.kind.exit_code()
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError {
        kind: CliErrorKind::Usage,
        message: msg.into(),
    }
}

fn io_err(msg: impl Into<String>) -> CliError {
    CliError {
        kind: CliErrorKind::Io,
        message: msg.into(),
    }
}

fn input_err(msg: impl Into<String>) -> CliError {
    CliError {
        kind: CliErrorKind::MalformedInput,
        message: msg.into(),
    }
}

/// Parsed command-line options.
#[derive(Debug, Default)]
struct Options {
    positional: Vec<String>,
    scale: u32,
    seed: u64,
    backend: String,
    out: Option<String>,
    dot: bool,
    adversarial: bool,
    no_gc: bool,
    json: bool,
    max_alive: usize,
    max_vars: usize,
    metrics_out: Option<String>,
    metrics_interval: u64,
    window: usize,
    require: Option<String>,
    jobs: usize,
    report: Option<String>,
    to: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, CliError> {
    let mut o = Options {
        scale: 1,
        seed: 0,
        backend: "velodrome".into(),
        metrics_interval: 10_000,
        jobs: 4,
        ..Default::default()
    };
    for a in args {
        if let Some(v) = a.strip_prefix("--scale=") {
            o.scale = v.parse().map_err(|_| err(format!("bad --scale: {v}")))?;
        } else if let Some(v) = a.strip_prefix("--seed=") {
            o.seed = v.parse().map_err(|_| err(format!("bad --seed: {v}")))?;
        } else if let Some(v) = a.strip_prefix("--backend=") {
            o.backend = v.to_owned();
        } else if let Some(v) = a.strip_prefix("--out=") {
            o.out = Some(v.to_owned());
        } else if a == "--dot" {
            o.dot = true;
        } else if a == "--adversarial" {
            o.adversarial = true;
        } else if a == "--no-gc" {
            o.no_gc = true;
        } else if a == "--json" {
            o.json = true;
        } else if let Some(v) = a.strip_prefix("--max-alive=") {
            o.max_alive = v
                .parse()
                .map_err(|_| err(format!("bad --max-alive: {v}")))?;
        } else if let Some(v) = a.strip_prefix("--max-vars=") {
            o.max_vars = v.parse().map_err(|_| err(format!("bad --max-vars: {v}")))?;
        } else if let Some(v) = a.strip_prefix("--metrics-out=") {
            o.metrics_out = Some(v.to_owned());
        } else if let Some(v) = a.strip_prefix("--metrics-interval=") {
            o.metrics_interval = v
                .parse()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| err(format!("bad --metrics-interval (want events > 0): {v}")))?;
        } else if let Some(v) = a.strip_prefix("--window=") {
            o.window = v.parse().map_err(|_| err(format!("bad --window: {v}")))?;
        } else if let Some(v) = a.strip_prefix("--require=") {
            o.require = Some(v.to_owned());
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            o.jobs = v
                .parse()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| err(format!("bad --jobs (want workers > 0): {v}")))?;
        } else if let Some(v) = a.strip_prefix("--report=") {
            o.report = Some(v.to_owned());
        } else if let Some(v) = a.strip_prefix("--to=") {
            o.to = Some(v.to_owned());
        } else if a.starts_with("--") {
            return Err(err(format!("unknown flag: {a}")));
        } else {
            o.positional.push(a.clone());
        }
    }
    Ok(o)
}

/// Usage text.
pub const USAGE: &str = "usage:
  velodrome list
  velodrome check <workload> [--scale=N] [--seed=S] [--backend=NAME] [--dot] [--adversarial]
  velodrome record <workload> --out=FILE [--scale=N] [--seed=S]
  velodrome trace <FILE> [--backend=NAME] [--dot]
  velodrome oracle <FILE>
  velodrome info <workload|FILE> [--scale=N] [--seed=S]
  velodrome replay <workload> <FILE> [--scale=N]
  velodrome compare <workload|FILE> [--scale=N] [--seed=S]
  velodrome convert <IN> <OUT> [--to=json|vbt]
  velodrome check-batch <DIR|MANIFEST> [--jobs=N] [--backend=NAME] [--report=FILE]
  velodrome metrics-verify <FILE> [--require=NAME,NAME]
trace files: JSON or binary VBT, sniffed by magic bytes; `convert`
  translates between the formats and every command accepts either
backends: velodrome (default), velodrome-nomerge (naive Figure 2 rule),
  velodrome-hybrid (vector-clock screen online, graph engine on escalation;
  same warnings as velodrome), aerodrome (linear-time vector-clock verdicts
  only), atomizer, eraser, hb-race, s2pl, empty (instrumentation only), all
  (velodrome + atomizer + eraser + hb-race); compare runs every backend
  but all
velodrome flags: --no-gc, --max-alive=N / --max-vars=N (resource budgets;
  tripping one degrades the analysis down an explicit ladder instead of
  growing without bound)
hybrid flags: --window=N (bounded escalation-replay window; 0 = unbounded,
  the default, which keeps output byte-identical to velodrome)
output flags: --dot (error graphs), --json (machine-readable warnings)
metrics flags: --metrics-out=FILE (JSON Lines telemetry snapshots;
  velodrome-family backends and all), --metrics-interval=N (events per
  snapshot, default 10000; a final snapshot is always written)
batch flags: --jobs=N (worker-pool size, default 4), --report=FILE (JSONL
  per-trace report to FILE, human summary to stdout; without it the JSONL
  goes to stdout); with --metrics-out, check-batch writes one merged
  snapshot carrying batch.* gauges
exit codes: 0 ok, 2 usage error, 3 I/O error, 4 malformed input file";

/// Executes a CLI invocation, returning the text to print on stdout.
pub fn execute(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(err(USAGE));
    };
    let opts = parse(rest)?;
    match cmd.as_str() {
        "list" => Ok(list()),
        "check" => check(&opts),
        "record" => record(&opts),
        "trace" => trace_cmd(&opts),
        "oracle" => oracle_cmd(&opts),
        "info" => info(&opts),
        "replay" => replay(&opts),
        "compare" => compare(&opts),
        "convert" => convert(&opts),
        "check-batch" => batch::check_batch_cmd(&opts),
        "metrics-verify" => metrics_verify(&opts),
        other => Err(err(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

fn list() -> String {
    let mut out = String::new();
    for w in velodrome_workloads::all(1) {
        let _ = writeln!(
            out,
            "{:<12} {:>7} lines  {} truly non-atomic methods  — {}",
            w.name,
            w.paper_lines,
            w.non_atomic.len(),
            w.description
        );
    }
    out
}

fn load_workload(opts: &Options) -> Result<velodrome_workloads::Workload, CliError> {
    let name = opts.positional.first().ok_or_else(|| err(USAGE))?;
    velodrome_workloads::build(name, opts.scale)
        .ok_or_else(|| err(format!("unknown workload `{name}`; try `velodrome list`")))
}

/// Runs the selected workload and returns its trace plus the scheduler's
/// watchdog statistics (all-zero under the random scheduler, which has no
/// watchdog). The stats feed the `watchdog.*` gauges of `--metrics-out`.
fn produce_trace(opts: &Options) -> Result<(Trace, WatchdogStats), CliError> {
    produce_trace_with(opts, &Telemetry::disabled())
}

/// [`produce_trace`] with a telemetry registry: each scheduler decision is
/// timed under `phase.scheduler_step`.
fn produce_trace_with(
    opts: &Options,
    telemetry: &Telemetry,
) -> Result<(Trace, WatchdogStats), CliError> {
    use velodrome_sim::run_program_with_telemetry;
    let w = load_workload(opts)?;
    let (result, watchdog) = if opts.adversarial {
        let mut sched = adversarial_scheduler(opts.seed, 400);
        let result = run_program_with_telemetry(&w.program, &mut sched, telemetry);
        let watchdog = sched.watchdog_stats();
        (result, watchdog)
    } else {
        let result =
            run_program_with_telemetry(&w.program, RandomScheduler::new(opts.seed), telemetry);
        (result, WatchdogStats::default())
    };
    if result.deadlocked {
        return Err(err(format!("workload {} deadlocked", w.name)));
    }
    Ok((result.trace, watchdog))
}

impl Options {
    /// The backend settings these flags select.
    fn settings(&self, telemetry: &Telemetry, watchdog: &WatchdogStats) -> Settings {
        Settings {
            no_gc: self.no_gc,
            max_alive: self.max_alive,
            max_vars: self.max_vars,
            window: self.window,
            telemetry: telemetry.clone(),
            spec: None,
            metrics: self.metrics_out.clone().map(|path| Metrics {
                path,
                interval: self.metrics_interval,
                watchdog: *watchdog,
            }),
        }
    }
}

fn analyze(trace: &Trace, opts: &Options, watchdog: &WatchdogStats) -> Result<Analysis, CliError> {
    let telemetry = if opts.metrics_out.is_some() {
        Telemetry::registry()
    } else {
        Telemetry::disabled()
    };
    analyze_with(trace, opts, watchdog, &telemetry)
}

/// [`analyze`] against a caller-provided registry, so phases recorded
/// before the analysis (e.g. `phase.scheduler_step` during trace
/// production) appear in the same `--metrics-out` snapshots.
fn analyze_with(
    trace: &Trace,
    opts: &Options,
    watchdog: &WatchdogStats,
    telemetry: &Telemetry,
) -> Result<Analysis, CliError> {
    let backend = backend::select(&opts.backend, opts.metrics_out.is_some())?;
    (backend.run)(trace, &opts.settings(telemetry, watchdog))
}

fn info(opts: &Options) -> Result<String, CliError> {
    // Accept a workload name or a recorded trace file.
    let arg = opts.positional.first().ok_or_else(|| err(USAGE))?;
    let trace = if velodrome_workloads::build(arg, 1).is_some() {
        produce_trace(opts)?.0
    } else {
        load_trace(opts)?
    };
    Ok(format!("{}\n", TraceStats::compute(&trace)))
}

fn replay(opts: &Options) -> Result<String, CliError> {
    use velodrome_sim::ReplayScheduler;
    let w = load_workload(opts)?;
    let path = opts.positional.get(1).ok_or_else(|| err(USAGE))?;
    let recording = read_trace_file(path)?;
    let mut replayer = ReplayScheduler::new(&recording);
    let result = run_program(&w.program, &mut replayer);
    if replayer.diverged() {
        return Err(err(format!(
            "replay diverged after {} of {} recorded events — the program does not \
             match the recording",
            replayer.replayed(),
            recording.len()
        )));
    }
    let mut out = format!(
        "replayed {} recorded events deterministically\n",
        replayer.replayed()
    );
    let analysis = analyze(&result.trace, opts, &WatchdogStats::default())?;
    out.push_str(&render_analysis(&result.trace, &analysis, opts.dot));
    Ok(out)
}

fn compare(opts: &Options) -> Result<String, CliError> {
    let arg = opts.positional.first().ok_or_else(|| err(USAGE))?;
    let trace = if velodrome_workloads::build(arg, 1).is_some() {
        produce_trace(opts)?.0
    } else {
        load_trace(opts)?
    };
    let mut out = format!("{} events; warnings per tool:\n", trace.len());
    let mut settings = opts.settings(&Telemetry::disabled(), &WatchdogStats::default());
    // Backends run side by side here; a metrics file belongs to one run.
    settings.metrics = None;
    let width = BACKENDS.iter().map(|b| b.name.len()).max().unwrap_or(0);
    for backend in BACKENDS.iter().filter(|b| b.name != "all") {
        let start = std::time::Instant::now();
        let analysis = (backend.run)(&trace, &settings)?;
        let elapsed = start.elapsed();
        let _ = writeln!(
            out,
            "  {:<width$} {:>4} warnings   {:>8.2?}",
            backend.name,
            analysis.warnings.len(),
            elapsed
        );
    }
    Ok(out)
}

fn render_analysis(trace: &Trace, analysis: &Analysis, dot: bool) -> String {
    let mut out = String::new();
    if analysis.warnings.is_empty() {
        let _ = writeln!(
            out,
            "no warnings: every observed transaction is serializable"
        );
    }
    for w in &analysis.warnings {
        let _ = writeln!(out, "{w}");
        if dot {
            if let Some(details) = &w.details {
                let _ = writeln!(out, "{details}");
            }
        }
    }
    for note in &analysis.notes {
        let _ = writeln!(out, "{note}");
    }
    let _ = writeln!(out, "({} events analyzed)", trace.len());
    out
}

fn check(opts: &Options) -> Result<String, CliError> {
    let telemetry = if opts.metrics_out.is_some() {
        Telemetry::registry()
    } else {
        Telemetry::disabled()
    };
    let (trace, watchdog) = produce_trace_with(opts, &telemetry)?;
    let analysis = analyze_with(&trace, opts, &watchdog, &telemetry)?;
    if opts.json {
        return Ok(format!(
            "{}\n",
            serde_json::to_string_pretty(&analysis.warnings).expect("warnings serialize")
        ));
    }
    Ok(render_analysis(&trace, &analysis, opts.dot))
}

fn record(opts: &Options) -> Result<String, CliError> {
    let (trace, _) = produce_trace(opts)?;
    let path = opts
        .out
        .as_deref()
        .ok_or_else(|| err("record requires --out=FILE"))?;
    std::fs::write(path, trace.to_json()).map_err(|e| io_err(format!("writing {path}: {e}")))?;
    Ok(format!("recorded {} events to {path}\n", trace.len()))
}

/// Reads and parses a trace file with structured diagnostics: an unreadable
/// path is an I/O error (exit 3); unparseable contents are a malformed-input
/// error (exit 4) naming the file, byte offset, and reason.
///
/// The format is sniffed from the first bytes: the VBT magic selects the
/// binary reader, anything else streams through the incremental JSON
/// parser. Neither path ever holds the input text in memory — peak
/// allocation is one fixed read buffer plus the decoded trace, so
/// multi-hundred-megabyte recordings load without tripling RSS.
fn read_trace_file(path: &str) -> Result<Trace, CliError> {
    use std::io::Read as _;
    let mut file = std::fs::File::open(path).map_err(|e| io_err(format!("reading {path}: {e}")))?;
    // Sniff up to the first 4 bytes, then replay them ahead of the rest of
    // the stream so the chosen parser still sees the file from byte 0.
    let mut head = [0u8; 4];
    let mut got = 0usize;
    while got < head.len() {
        match file.read(&mut head[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(format!("reading {path}: {e}"))),
        }
    }
    let src = head[..got].chain(file);
    let result = if velodrome_events::is_vbt(&head[..got]) {
        velodrome_events::read_vbt(src)
    } else {
        velodrome_events::read_json_trace(src)
    };
    result.map_err(|e| match e {
        velodrome_events::TraceReadError::Io(e) => io_err(format!("reading {path}: {e}")),
        malformed => input_err(format!("malformed trace file {path}: {malformed}")),
    })
}

/// Translates a trace between the JSON and VBT encodings. The target
/// format comes from `--to=json|vbt` or, failing that, the output path's
/// extension.
fn convert(opts: &Options) -> Result<String, CliError> {
    let inp = opts.positional.first().ok_or_else(|| err(USAGE))?;
    let out = opts
        .positional
        .get(1)
        .ok_or_else(|| err("convert requires an input and an output path"))?;
    let target = match opts.to.as_deref() {
        Some("json") => "json",
        Some("vbt") => "vbt",
        Some(other) => return Err(err(format!("bad --to: {other} (want json or vbt)"))),
        None if out.ends_with(".vbt") => "vbt",
        None if out.ends_with(".json") => "json",
        None => {
            return Err(err(format!(
                "cannot infer the target format from `{out}`; pass --to=json|vbt"
            )))
        }
    };
    let trace = read_trace_file(inp)?;
    if target == "vbt" {
        let file = std::fs::File::create(out).map_err(|e| io_err(format!("writing {out}: {e}")))?;
        velodrome_events::write_vbt(std::io::BufWriter::new(file), &trace)
            .map_err(|e| io_err(format!("writing {out}: {e}")))?;
    } else {
        std::fs::write(out, trace.to_json()).map_err(|e| io_err(format!("writing {out}: {e}")))?;
    }
    Ok(format!(
        "converted {} events: {inp} -> {out} ({target})\n",
        trace.len()
    ))
}

fn load_trace(opts: &Options) -> Result<Trace, CliError> {
    let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
    read_trace_file(path)
}

fn trace_cmd(opts: &Options) -> Result<String, CliError> {
    let trace = load_trace(opts)?;
    let analysis = analyze(&trace, opts, &WatchdogStats::default())?;
    if opts.json {
        return Ok(format!(
            "{}\n",
            serde_json::to_string_pretty(&analysis.warnings).expect("warnings serialize")
        ));
    }
    Ok(render_analysis(&trace, &analysis, opts.dot))
}

/// Metric names every snapshot line must carry for downstream dashboards;
/// `scripts/ci-gate.sh` runs `metrics-verify` against a fresh `--metrics-out`
/// file to keep the contract honest.
const REQUIRED_METRICS: &[&str] = &[
    "arena.allocated",
    "arena.cur_alive",
    "engine.ops",
    "engine.ladder",
    "watchdog.pauses_issued",
];

/// Validates a `--metrics-out` JSON Lines file: every line parses as JSON,
/// carries `seq`/`events`/`metrics`, `seq` counts up from 0, and each
/// snapshot contains the required metric names — [`REQUIRED_METRICS`] plus
/// any extra names given via `--require=a,b,c` (how `scripts/ci-gate.sh`
/// pins the hybrid backend's `aerodrome.*`/`hybrid.*` gauges).
fn metrics_verify(opts: &Options) -> Result<String, CliError> {
    let path = opts.positional.first().ok_or_else(|| err(USAGE))?;
    let mut required: Vec<&str> = REQUIRED_METRICS.to_vec();
    if let Some(extra) = opts.require.as_deref() {
        for name in extra.split(',').filter(|n| !n.is_empty()) {
            required.push(name);
        }
    }
    let text = std::fs::read_to_string(path).map_err(|e| io_err(format!("reading {path}: {e}")))?;
    let mut snapshots = 0u64;
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: serde_json::Value = serde_json::from_str(line)
            .map_err(|e| input_err(format!("{path}:{}: not valid JSON: {e}", n + 1)))?;
        let seq = v["seq"]
            .as_u64()
            .ok_or_else(|| input_err(format!("{path}:{}: missing `seq`", n + 1)))?;
        if seq != snapshots {
            return Err(input_err(format!(
                "{path}:{}: snapshot seq {seq} out of order (expected {snapshots})",
                n + 1
            )));
        }
        v["events"]
            .as_u64()
            .ok_or_else(|| input_err(format!("{path}:{}: missing `events`", n + 1)))?;
        let metrics = v["metrics"]
            .as_object()
            .ok_or_else(|| input_err(format!("{path}:{}: missing `metrics` object", n + 1)))?;
        for name in &required {
            if metrics.get(name).is_none() {
                return Err(input_err(format!(
                    "{path}:{}: snapshot is missing required metric `{name}`",
                    n + 1
                )));
            }
        }
        snapshots += 1;
    }
    if snapshots == 0 {
        return Err(input_err(format!("{path}: no snapshots found")));
    }
    Ok(format!(
        "ok: {snapshots} snapshots, all {} required metrics present\n",
        required.len()
    ))
}

fn oracle_cmd(opts: &Options) -> Result<String, CliError> {
    let trace = load_trace(opts)?;
    let result = oracle::check(&trace);
    Ok(if result.serializable {
        "serializable: an equivalent serial trace exists\n".to_owned()
    } else {
        format!(
            "NOT serializable: witness cycle of {} transactions\n",
            result.cycle.map(|c| c.len()).unwrap_or(0)
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        execute(&owned)
    }

    #[test]
    fn list_names_all_benchmarks() {
        let out = run(&["list"]).unwrap();
        for name in velodrome_workloads::NAMES {
            assert!(out.contains(name), "{name} missing from list");
        }
    }

    #[test]
    fn check_multiset_reports_defects() {
        let out = run(&["check", "multiset", "--seed=1"]).unwrap();
        assert!(out.contains("is not atomic"), "{out}");
    }

    #[test]
    fn check_raja_is_clean() {
        let out = run(&["check", "raja"]).unwrap();
        assert!(out.contains("no warnings"), "{out}");
    }

    #[test]
    fn dot_flag_includes_graph() {
        let out = run(&["check", "multiset", "--dot"]).unwrap();
        assert!(out.contains("digraph"), "{out}");
    }

    #[test]
    fn every_listed_backend_is_accepted() {
        let documented: std::collections::HashSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .collect();
        for backend in backend::BACKENDS {
            let name = backend.name;
            assert!(documented.contains(name), "USAGE does not name `{name}`");
            let out = run(&["check", "jbb", &format!("--backend={name}")])
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.contains("events analyzed"), "{name}: {out}");
        }
    }

    #[test]
    fn backend_selection_works() {
        let out = run(&["check", "jbb", "--backend=atomizer"]).unwrap();
        assert!(out.contains("atomizer"), "{out}");
        let all = run(&["check", "jbb", "--backend=all"]).unwrap();
        assert!(all.contains("atomizer") || all.contains("eraser"), "{all}");
    }

    #[test]
    fn record_and_replay_roundtrip() {
        let dir = std::env::temp_dir().join("velodrome-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("multiset.json");
        let path_str = path.to_str().unwrap();
        let out = run(&["record", "multiset", &format!("--out={path_str}")]).unwrap();
        assert!(out.contains("recorded"), "{out}");
        let replay = run(&["trace", path_str]).unwrap();
        assert!(replay.contains("is not atomic"), "{replay}");
        let oracle_out = run(&["oracle", path_str]).unwrap();
        assert!(oracle_out.contains("NOT serializable"), "{oracle_out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replay_reproduces_recorded_violation() {
        let dir = std::env::temp_dir().join("velodrome-cli-replay");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rec.json");
        let path_str = path.to_str().unwrap();
        // Find a seed whose run shows the violation, record it, replay it.
        let rec = run(&[
            "record",
            "multiset",
            "--seed=1",
            &format!("--out={path_str}"),
        ])
        .unwrap();
        assert!(rec.contains("recorded"));
        let out = run(&["replay", "multiset", path_str]).unwrap();
        assert!(out.contains("replayed"), "{out}");
        assert!(out.contains("is not atomic"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&["check", "nonesuch"]).is_err());
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&["check", "multiset", "--backend=nope"]).is_err());
        assert!(run(&["check", "multiset", "--bogus"]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn usage_errors_exit_2() {
        for args in [
            &["frobnicate"][..],
            &["check", "nonesuch"],
            &["check", "multiset", "--backend=nope"],
            &["check", "multiset", "--max-alive=xyz"],
        ] {
            let e = run(args).unwrap_err();
            assert_eq!(e.kind, CliErrorKind::Usage, "{args:?}: {e}");
            assert_eq!(e.exit_code(), 2);
        }
    }

    #[test]
    fn missing_trace_file_is_io_error_exit_3() {
        for cmd in ["trace", "oracle"] {
            let e = run(&[cmd, "/nonexistent/velodrome-trace.json"]).unwrap_err();
            assert_eq!(e.kind, CliErrorKind::Io, "{cmd}: {e}");
            assert_eq!(e.exit_code(), 3);
            assert!(
                e.message.contains("/nonexistent/velodrome-trace.json"),
                "{e}"
            );
        }
        let e = run(&["replay", "multiset", "/nonexistent/rec.json"]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::Io, "{e}");
    }

    #[test]
    fn truncated_trace_file_is_malformed_input_exit_4() {
        let dir = std::env::temp_dir().join("velodrome-cli-truncated");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.json");
        let path_str = path.to_str().unwrap();
        // Record a valid trace, then truncate it mid-document.
        run(&["record", "multiset", &format!("--out={path_str}")]).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        for cmd in [&["trace", path_str][..], &["oracle", path_str]] {
            let e = run(cmd).unwrap_err();
            assert_eq!(e.kind, CliErrorKind::MalformedInput, "{cmd:?}: {e}");
            assert_eq!(e.exit_code(), 4);
            assert!(e.message.contains(path_str), "names the file: {e}");
            assert!(e.message.contains("byte"), "gives a byte offset: {e}");
        }
        let e = run(&["replay", "multiset", path_str]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::MalformedInput, "{e}");
        // Garbage that is valid JSON but not a trace is also malformed
        // input, not a crash.
        std::fs::write(&path, "{\"ops\": 42}").unwrap();
        let e = run(&["trace", path_str]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::MalformedInput, "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_flags_degrade_and_report() {
        let out = run(&["check", "multiset", "--seed=1", "--max-vars=1"]).unwrap();
        assert!(out.contains("degraded"), "{out}");
        // Unbudgeted output is unchanged and says nothing about degradation.
        let clean = run(&["check", "multiset", "--seed=1"]).unwrap();
        assert!(!clean.contains("degraded"), "{clean}");
    }

    #[test]
    fn info_reports_stats() {
        let out = run(&["info", "multiset"]).unwrap();
        assert!(out.contains("transactions"), "{out}");
        assert!(out.contains("threads"), "{out}");
    }

    #[test]
    fn no_merge_flag_still_detects() {
        let out = run(&[
            "check",
            "multiset",
            "--backend=velodrome-nomerge",
            "--seed=1",
        ])
        .unwrap();
        assert!(out.contains("is not atomic"), "{out}");
    }

    #[test]
    fn s2pl_backend_flags_sufficient_condition_violations() {
        let out = run(&["check", "multiset", "--backend=s2pl"]).unwrap();
        assert!(out.contains("strict two-phase"), "{out}");
    }

    #[test]
    fn compare_lists_all_tools() {
        let out = run(&["compare", "jbb"]).unwrap();
        for backend in BACKENDS {
            let listed = out
                .lines()
                .any(|l| l.split_whitespace().next() == Some(backend.name));
            assert_eq!(listed, backend.name != "all", "{}: {out}", backend.name);
        }
    }

    #[test]
    fn compare_honors_budget_flags() {
        let flags = ["multiset", "--seed=1", "--scale=4", "--max-alive=2"];
        let check = run(&[&["check", "--json"][..], &flags].concat()).unwrap();
        let checked: serde_json::Value = serde_json::from_str(&check).unwrap();
        let compared = run(&[&["compare"][..], &flags].concat()).unwrap();
        let row = compared
            .lines()
            .find(|l| l.split_whitespace().next() == Some("velodrome"))
            .unwrap();
        let count: usize = row.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert_eq!(count, checked.as_array().unwrap().len(), "{compared}");
    }

    #[test]
    fn json_output_is_machine_readable() {
        let out = run(&["check", "multiset", "--seed=1", "--json"]).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(parsed.as_array().is_some_and(|a| !a.is_empty()), "{out}");
        assert_eq!(parsed[0]["tool"], "velodrome");
        assert_eq!(parsed[0]["category"], "atomicity");
    }

    #[test]
    fn adversarial_flag_runs() {
        let out = run(&["check", "elevator", "--adversarial"]).unwrap();
        assert!(out.contains("events analyzed"), "{out}");
    }

    #[test]
    fn metrics_out_writes_verifiable_snapshots() {
        let dir = std::env::temp_dir().join("velodrome-cli-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        let path_str = path.to_str().unwrap();
        let out = run(&[
            "check",
            "multiset",
            "--seed=1",
            "--scale=4",
            &format!("--metrics-out={path_str}"),
            "--metrics-interval=100",
        ])
        .unwrap();
        assert!(out.contains("metric snapshots written"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "expected interval + final snapshots");
        for line in &lines {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            let metrics = v["metrics"].as_object().unwrap();
            for name in REQUIRED_METRICS {
                assert!(metrics.get(name).is_some(), "missing {name}: {line}");
            }
        }
        let verified = run(&["metrics-verify", path_str]).unwrap();
        assert!(verified.contains("ok:"), "{verified}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_final_snapshot_always_written() {
        let dir = std::env::temp_dir().join("velodrome-cli-metrics-final");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.jsonl");
        let path_str = path.to_str().unwrap();
        // Interval far larger than the trace: only the final snapshot fires.
        run(&[
            "check",
            "multiset",
            &format!("--metrics-out={path_str}"),
            "--metrics-interval=100000000",
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_flags_are_validated() {
        let e = run(&["check", "multiset", "--metrics-interval=0"]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::Usage, "{e}");
        let e = run(&[
            "check",
            "multiset",
            "--backend=eraser",
            "--metrics-out=/tmp/x.jsonl",
        ])
        .unwrap_err();
        assert_eq!(e.kind, CliErrorKind::Usage, "{e}");
        assert!(e.message.contains("velodrome or hybrid backend"), "{e}");
    }

    #[test]
    fn hybrid_backend_output_matches_velodrome() {
        let pure = run(&["check", "multiset", "--seed=1", "--json"]).unwrap();
        let hybrid = run(&[
            "check",
            "multiset",
            "--seed=1",
            "--backend=velodrome-hybrid",
            "--json",
        ])
        .unwrap();
        assert_eq!(pure, hybrid, "hybrid warnings must be byte-identical");
        let text = run(&[
            "check",
            "multiset",
            "--seed=1",
            "--backend=velodrome-hybrid",
        ])
        .unwrap();
        assert!(text.contains("escalated to the graph engine"), "{text}");
    }

    #[test]
    fn aerodrome_backend_reports_verdicts_without_details() {
        let out = run(&[
            "check",
            "multiset",
            "--seed=1",
            "--backend=aerodrome",
            "--json",
        ])
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        let warnings = parsed.as_array().unwrap();
        assert!(!warnings.is_empty(), "{out}");
        for w in warnings {
            assert_eq!(w["tool"], "aerodrome", "{w:?}");
            assert!(w["details"].is_null(), "verdict-only strips details: {w:?}");
        }
    }

    #[test]
    fn hybrid_screen_note_reports_the_fast_path() {
        // raja's observed trace is serializable; if the screen holds, the
        // note says so and confirms zero graph operations.
        let out = run(&["check", "raja", "--backend=velodrome-hybrid"]).unwrap();
        assert!(out.contains("vector-clock screen"), "{out}");
        assert!(out.contains("no warnings"), "{out}");
    }

    #[test]
    fn window_flag_is_validated_and_accepted() {
        let e = run(&["check", "multiset", "--window=abc"]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::Usage, "{e}");
        let out = run(&[
            "check",
            "multiset",
            "--seed=1",
            "--backend=velodrome-hybrid",
            "--window=4",
        ])
        .unwrap();
        assert!(out.contains("events analyzed"), "{out}");
    }

    #[test]
    fn hybrid_metrics_out_carries_screen_gauges() {
        let dir = std::env::temp_dir().join("velodrome-cli-hybrid-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hybrid.jsonl");
        let path_str = path.to_str().unwrap();
        let out = run(&[
            "check",
            "multiset",
            "--seed=1",
            "--scale=4",
            "--backend=velodrome-hybrid",
            &format!("--metrics-out={path_str}"),
            "--metrics-interval=100",
        ])
        .unwrap();
        assert!(out.contains("metric snapshots written"), "{out}");
        // The base contract plus the screen's own gauges all verify.
        let verified = run(&[
            "metrics-verify",
            path_str,
            "--require=aerodrome.joins,aerodrome.epoch_hits,hybrid.escalations,hybrid.graph_ops",
        ])
        .unwrap();
        assert!(verified.contains("ok:"), "{verified}");
        // Demanding a gauge nobody publishes fails with exit 4.
        let e = run(&["metrics-verify", path_str, "--require=no.such.metric"]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::MalformedInput, "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_verify_rejects_bad_files() {
        let e = run(&["metrics-verify", "/nonexistent/metrics.jsonl"]).unwrap_err();
        assert_eq!(e.kind, CliErrorKind::Io);
        let dir = std::env::temp_dir().join("velodrome-cli-metrics-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.jsonl");
        let path_str = path.to_str().unwrap();
        for (contents, why) in [
            ("not json at all", "unparseable line"),
            ("{\"seq\": 0}", "missing fields"),
            ("", "no snapshots"),
            (
                "{\"seq\":0,\"events\":1,\"metrics\":{\"engine.ops\":{\"type\":\"gauge\",\"value\":1}}}",
                "missing required metric",
            ),
        ] {
            std::fs::write(&path, contents).unwrap();
            let e = run(&["metrics-verify", path_str]).unwrap_err();
            assert_eq!(e.kind, CliErrorKind::MalformedInput, "{why}: {e}");
            assert_eq!(e.exit_code(), 4, "{why}");
        }
        std::fs::remove_file(&path).ok();
    }
}
