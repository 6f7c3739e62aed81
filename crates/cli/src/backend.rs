//! The backend registry: every analysis `--backend=NAME` can select, in one
//! table.
//!
//! The CLI (`check`, `trace`, `replay`, `compare`), the batch runner, and
//! the benchmark harness all iterate [`BACKENDS`] or look names up in it,
//! so adding a backend takes one entry. Each entry's `run` is a plain
//! function over the concrete tool type: dispatch happens once per trace,
//! and the per-operation loop stays monomorphic. A run takes an [`Input`]:
//! a trace file whose operations stream from the decoder straight into the
//! tool (`trace`, `check-batch`), or a trace already in memory.

use crate::{err, io_err, open_trace_file, read_error, CliError, USAGE};
use std::borrow::Cow;
use velodrome::{HybridConfig, HybridVelodrome, Velodrome, VelodromeConfig};
use velodrome_atomizer::Atomizer;
use velodrome_events::{Op, SymbolTable, Trace, TraceSource};
use velodrome_lockset::{Eraser, StrictTwoPhase};
use velodrome_monitor::{
    AtomicitySpec, DegradationLevel, EmptyTool, ResourceBudget, SpecFilter, Tool, Warning,
};
use velodrome_sim::WatchdogStats;
use velodrome_telemetry::{JsonlExporter, Telemetry};
use velodrome_vclock::HbRaceDetector;

/// Warnings plus analysis-health notes (budget suppression, degradation,
/// screen escalation) that the text renderer appends after the warnings.
#[derive(Debug)]
pub struct Analysis {
    /// The backend's warnings, in trace order.
    pub warnings: Vec<Warning>,
    /// Analysis-health notes.
    pub notes: Vec<String>,
    /// The final `gauges()` of a metered backend's statistics: the values
    /// its last `--metrics-out` snapshot carries. Empty for the others.
    pub stats: Vec<(&'static str, u64)>,
    /// Operations analyzed: the length of the trace.
    pub events: usize,
}

impl Analysis {
    /// The final value of the statistics gauge `name`, if the backend
    /// reports it.
    pub fn stat(&self, name: &str) -> Option<u64> {
        self.stats
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Where `--metrics-out` snapshots go.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// JSON Lines output file.
    pub path: String,
    /// Events between snapshots, at least 1; a final snapshot is always
    /// written.
    pub interval: u64,
    /// Scheduler watchdog gauges published alongside the engine's.
    pub watchdog: WatchdogStats,
}

/// Everything a backend run takes besides the trace. The default is the
/// plain configuration: GC on, no budgets, unbounded hybrid window,
/// telemetry disabled, every atomic block checked.
#[derive(Debug, Clone, Default)]
pub struct Settings {
    /// Keep finished transactions instead of collecting them (`--no-gc`).
    pub no_gc: bool,
    /// Alive-node budget (`--max-alive`; 0 = unlimited).
    pub max_alive: usize,
    /// Tracked-variable budget (`--max-vars`; 0 = unlimited).
    pub max_vars: usize,
    /// Hybrid escalation-replay window (`--window`; 0 = unbounded).
    pub window: usize,
    /// Registry the engines time their phases and count live events into.
    /// Metered backends publish their statistics into it only before each
    /// `metrics` snapshot; the final values are always in
    /// [`Analysis::stats`].
    pub telemetry: Telemetry,
    /// Check only the blocks this spec selects (the Table 1
    /// configuration); `None` checks every block.
    pub spec: Option<AtomicitySpec>,
    /// Stream snapshots to a file while the trace runs (`--metrics-out`).
    /// Only metered backends write them.
    pub metrics: Option<Metrics>,
}

/// The operations a backend runs over.
pub enum Input<'a> {
    /// A trace file, decoded as its operations stream into the backend:
    /// nothing of the trace is kept but what the backend itself keeps.
    /// Errors the decoder finds at the end of the stream fail the run
    /// after every operation has been analyzed, so no verdict escapes.
    File {
        /// The file's path, for diagnostics.
        path: &'a str,
        /// The opened stream.
        source: TraceSource<std::fs::File>,
    },
    /// A trace already in memory.
    Trace(&'a Trace),
}

impl<'a> Input<'a> {
    /// Opens the trace file at `path` (either encoding) for streaming. An
    /// unreadable path is an I/O error; a bad VBT header is malformed
    /// input.
    pub(crate) fn open(path: &'a str) -> Result<Self, CliError> {
        Ok(Self::File {
            path,
            source: open_trace_file(path)?,
        })
    }

    /// Feeds every operation to `sink` in trace order, then returns the
    /// symbol table and the operation count.
    fn stream(
        self,
        mut sink: impl FnMut(usize, Op),
    ) -> Result<(Cow<'a, SymbolTable>, usize), CliError> {
        match self {
            Self::File { path, source } => {
                let rest = source.stream(sink).map_err(|e| read_error(path, e))?;
                Ok((Cow::Owned(rest.names), rest.ops))
            }
            Self::Trace(trace) => {
                for (i, op) in trace.iter() {
                    sink(i, op);
                }
                Ok((Cow::Borrowed(trace.names()), trace.len()))
            }
        }
    }
}

impl<'a> From<&'a Trace> for Input<'a> {
    fn from(trace: &'a Trace) -> Self {
        Self::Trace(trace)
    }
}

/// One registered backend.
#[derive(Debug)]
pub struct Backend {
    /// The name `--backend=` takes.
    pub name: &'static str,
    /// Whether the backend reports statistics ([`Analysis::stats`]), i.e.
    /// accepts `--metrics-out`.
    pub metered: bool,
    /// Runs the backend over one trace.
    pub run: fn(Input<'_>, &Settings) -> Result<Analysis, CliError>,
}

/// Every backend, in the order `compare` lists them.
pub const BACKENDS: &[Backend] = &[
    Backend {
        name: "velodrome",
        metered: true,
        run: velodrome,
    },
    Backend {
        name: "velodrome-nomerge",
        metered: true,
        run: velodrome_nomerge,
    },
    Backend {
        name: "velodrome-hybrid",
        metered: true,
        run: velodrome_hybrid,
    },
    Backend {
        name: "aerodrome",
        metered: true,
        run: aerodrome,
    },
    Backend {
        name: "atomizer",
        metered: false,
        run: atomizer,
    },
    Backend {
        name: "eraser",
        metered: false,
        run: eraser,
    },
    Backend {
        name: "hb-race",
        metered: false,
        run: hb_race,
    },
    Backend {
        name: "s2pl",
        metered: false,
        run: s2pl,
    },
    Backend {
        name: "empty",
        metered: false,
        run: empty,
    },
    Backend {
        name: "all",
        metered: true,
        run: all,
    },
];

/// The backend registered under `name`.
pub fn lookup(name: &str) -> Option<&'static Backend> {
    BACKENDS.iter().find(|b| b.name == name)
}

/// [`lookup`] for a command line: an unknown name, or metrics requested
/// from a backend that is not metered, is a usage error.
pub(crate) fn select(name: &str, metrics: bool) -> Result<&'static Backend, CliError> {
    let backend = lookup(name).ok_or_else(|| err(format!("unknown backend `{name}`\n{USAGE}")))?;
    if metrics && !backend.metered {
        return Err(err(format!(
            "--metrics-out requires a velodrome or hybrid backend, not `{name}`"
        )));
    }
    Ok(backend)
}

/// What the driver needs of a tool besides [`Tool`].
trait Analyzer: Tool {
    /// Whether the tool has statistics, i.e. writes `--metrics-out`
    /// snapshots.
    const METERED: bool = false;

    /// The tool's statistics, as its stats struct's `gauges()` table.
    fn gauges(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Takes the trace's symbol table, which a streamed trace delivers only
    /// after its last operation, before the warnings are taken.
    fn names(&mut self, _names: Cow<'_, SymbolTable>) {}
}

impl Analyzer for Velodrome {
    const METERED: bool = true;

    fn gauges(&self) -> Vec<(&'static str, u64)> {
        self.stats().gauges()
    }

    fn names(&mut self, names: Cow<'_, SymbolTable>) {
        self.set_names(names.into_owned());
    }
}

impl Analyzer for HybridVelodrome {
    const METERED: bool = true;

    fn gauges(&self) -> Vec<(&'static str, u64)> {
        self.stats().gauges()
    }

    fn names(&mut self, names: Cow<'_, SymbolTable>) {
        self.set_names(names.into_owned());
    }
}

impl Analyzer for Atomizer {}
impl Analyzer for Eraser {}
impl Analyzer for HbRaceDetector {}
impl Analyzer for StrictTwoPhase {}
impl Analyzer for EmptyTool {}

impl<T: Analyzer> Analyzer for SpecFilter<T> {
    const METERED: bool = T::METERED;

    fn gauges(&self) -> Vec<(&'static str, u64)> {
        self.inner().gauges()
    }

    fn names(&mut self, names: Cow<'_, SymbolTable>) {
        self.inner_mut().names(names);
    }
}

/// Velodrome, the atomizer, and both race detectors over one pass of the
/// trace; Velodrome's statistics stand for the whole.
struct All {
    velodrome: Velodrome,
    atomizer: Atomizer,
    eraser: Eraser,
    hb_race: HbRaceDetector,
}

impl Tool for All {
    fn name(&self) -> &'static str {
        "all"
    }

    fn op(&mut self, index: usize, op: Op) {
        self.velodrome.op(index, op);
        self.atomizer.op(index, op);
        self.eraser.op(index, op);
        self.hb_race.op(index, op);
    }

    fn end_of_trace(&mut self) {
        self.velodrome.end_of_trace();
        self.atomizer.end_of_trace();
        self.eraser.end_of_trace();
        self.hb_race.end_of_trace();
    }

    /// Each tool's warnings in turn, then stably sorted into trace order.
    fn take_warnings(&mut self) -> Vec<Warning> {
        let mut warnings = self.velodrome.take_warnings();
        warnings.extend(self.atomizer.take_warnings());
        warnings.extend(self.eraser.take_warnings());
        warnings.extend(self.hb_race.take_warnings());
        warnings.sort_by_key(|w| w.op_index);
        warnings
    }
}

impl Analyzer for All {
    const METERED: bool = true;

    fn gauges(&self) -> Vec<(&'static str, u64)> {
        self.velodrome.gauges()
    }

    fn names(&mut self, names: Cow<'_, SymbolTable>) {
        self.velodrome.names(names);
    }
}

/// Runs `tool` over the input as `settings` asks — through the spec
/// filter when a spec is set, metered when the tool has statistics — and
/// hands the tool back for its final statistics.
fn drive<T: Analyzer>(
    tool: T,
    input: Input<'_>,
    settings: &Settings,
) -> Result<(T, Analysis), CliError> {
    let Some(spec) = &settings.spec else {
        let mut tool = tool;
        let analysis = feed(&mut tool, input, settings)?;
        return Ok((tool, analysis));
    };
    let mut filtered = SpecFilter::new(spec.clone(), tool);
    let analysis = feed(&mut filtered, input, settings)?;
    Ok((filtered.into_inner(), analysis))
}

fn feed<T: Analyzer>(
    tool: &mut T,
    input: Input<'_>,
    settings: &Settings,
) -> Result<Analysis, CliError> {
    let mut notes = Vec::new();
    let (warnings, events) = match &settings.metrics {
        Some(metrics) if T::METERED => {
            let (warnings, events, lines) = run_metered(tool, input, settings, metrics)?;
            notes.push(format!(
                "{lines} metric snapshots written to {}",
                metrics.path
            ));
            (warnings, events)
        }
        _ => {
            let (names, events) = input.stream(|i, op| tool.op(i, op))?;
            tool.end_of_trace();
            tool.names(names);
            (tool.take_warnings(), events)
        }
    };
    Ok(Analysis {
        warnings,
        notes,
        stats: tool.gauges(),
        events,
    })
}

/// Drives the tool over the input one operation at a time, publishing its
/// gauges and writing a registry snapshot to a JSONL file every `interval`
/// events, plus a final snapshot once the input has been read to its end
/// (so a valid trace always gets at least one line, and an invalid one no
/// final line). Returns the warnings, the event count and the lines
/// written.
fn run_metered<T: Analyzer>(
    tool: &mut T,
    input: Input<'_>,
    settings: &Settings,
    metrics: &Metrics,
) -> Result<(Vec<Warning>, usize, u64), CliError> {
    let path = metrics.path.as_str();
    let telemetry = &settings.telemetry;
    let file = std::fs::File::create(path).map_err(|e| io_err(format!("creating {path}: {e}")))?;
    let mut exporter = JsonlExporter::new(std::io::BufWriter::new(file));
    let mut seq = 0u64;
    let mut emit = |tool: &T, events: u64| -> Result<(), CliError> {
        telemetry.publish(&tool.gauges());
        telemetry.publish(&metrics.watchdog.gauges());
        if let Some(snap) = telemetry.snapshot(seq, events) {
            exporter
                .export(&snap)
                .map_err(|e| io_err(format!("writing {path}: {e}")))?;
            seq += 1;
        }
        Ok(())
    };
    // The sink cannot fail; the first write error stops the snapshots and
    // is returned once the input has been read.
    let mut failed = None;
    let (names, events) = input.stream(|i, op| {
        tool.op(i, op);
        let events = i as u64 + 1;
        if events % metrics.interval == 0 && failed.is_none() {
            failed = emit(tool, events).err();
        }
    })?;
    if let Some(e) = failed {
        return Err(e);
    }
    tool.end_of_trace();
    emit(tool, events as u64)?;
    tool.names(names);
    Ok((tool.take_warnings(), events, exporter.lines_written()))
}

/// The engine configuration the flags select. The symbol table is left
/// empty: the driver hands it over when the input ends ([`Analyzer::names`]).
fn engine_config(settings: &Settings, merge: bool) -> VelodromeConfig {
    VelodromeConfig {
        merge,
        gc: !settings.no_gc,
        budget: ResourceBudget {
            max_alive_nodes: settings.max_alive,
            max_tracked_vars: settings.max_vars,
            ..ResourceBudget::UNLIMITED
        },
        telemetry: settings.telemetry.clone(),
        ..VelodromeConfig::default()
    }
}

/// Notes on a finished engine run: suppressed warnings and degradation.
fn velodrome_notes(engine: &Velodrome, notes: &mut Vec<String>) {
    let stats = engine.stats();
    if stats.warnings_suppressed > 0 {
        notes.push(format!(
            "{} warnings suppressed (budget)",
            stats.warnings_suppressed
        ));
    }
    if stats.ladder != DegradationLevel::Full {
        notes.push(format!(
            "analysis degraded to {} ({} transitions, {} vars quarantined) — \
             warnings after the degradation point may be incomplete",
            stats.ladder, stats.degradations, stats.vars_quarantined
        ));
    }
}

fn run_velodrome(input: Input<'_>, settings: &Settings, merge: bool) -> Result<Analysis, CliError> {
    let engine = Velodrome::with_config(engine_config(settings, merge));
    let (engine, mut analysis) = drive(engine, input, settings)?;
    velodrome_notes(&engine, &mut analysis.notes);
    Ok(analysis)
}

fn run_hybrid(
    input: Input<'_>,
    settings: &Settings,
    verdict_only: bool,
) -> Result<Analysis, CliError> {
    let checker = HybridVelodrome::with_config(HybridConfig {
        engine: engine_config(settings, true),
        max_window: settings.window,
        verdict_only,
    });
    let (checker, mut analysis) = drive(checker, input, settings)?;
    let stats = checker.stats();
    analysis.notes.push(match stats.escalated_at {
        Some(at) => format!(
            "vector-clock screen escalated to the graph engine at event {at} \
             ({} buffered events replayed, {} graph operations)",
            stats.buffered_peak,
            stats.graph_ops()
        ),
        None => format!(
            "vector-clock screen held for all {} events: 0 graph operations, \
             {} epoch fast-path hits",
            stats.ops, stats.screen.epoch_hits
        ),
    });
    if stats.truncated > 0 {
        analysis.notes.push(format!(
            "{} events were evicted from the bounded escalation window \
             (--window={}); warnings may be incomplete",
            stats.truncated, settings.window
        ));
    }
    Ok(analysis)
}

fn unmetered<T: Analyzer>(
    tool: T,
    input: Input<'_>,
    settings: &Settings,
) -> Result<Analysis, CliError> {
    Ok(drive(tool, input, settings)?.1)
}

/// The paper's checker with every optimization.
fn velodrome(input: Input<'_>, settings: &Settings) -> Result<Analysis, CliError> {
    run_velodrome(input, settings, true)
}

/// The naive Figure 2 rule: one node per operation outside a transaction.
fn velodrome_nomerge(input: Input<'_>, settings: &Settings) -> Result<Analysis, CliError> {
    run_velodrome(input, settings, false)
}

/// Vector-clock screen online, graph engine on escalation; warnings
/// byte-identical to `velodrome`.
fn velodrome_hybrid(input: Input<'_>, settings: &Settings) -> Result<Analysis, CliError> {
    run_hybrid(input, settings, false)
}

/// The same two tiers, verdict-only output.
fn aerodrome(input: Input<'_>, settings: &Settings) -> Result<Analysis, CliError> {
    run_hybrid(input, settings, true)
}

fn atomizer(input: Input<'_>, settings: &Settings) -> Result<Analysis, CliError> {
    unmetered(Atomizer::new(), input, settings)
}

fn eraser(input: Input<'_>, settings: &Settings) -> Result<Analysis, CliError> {
    unmetered(Eraser::new(), input, settings)
}

fn hb_race(input: Input<'_>, settings: &Settings) -> Result<Analysis, CliError> {
    unmetered(HbRaceDetector::new(), input, settings)
}

fn s2pl(input: Input<'_>, settings: &Settings) -> Result<Analysis, CliError> {
    unmetered(StrictTwoPhase::new(), input, settings)
}

/// Instrumentation only: Table 1's denominator.
fn empty(input: Input<'_>, settings: &Settings) -> Result<Analysis, CliError> {
    let (tool, analysis) = drive(EmptyTool::new(), input, settings)?;
    // Observe the count, so the loop being timed cannot be optimized away.
    std::hint::black_box(tool.ops_seen());
    Ok(analysis)
}

/// Velodrome plus the atomizer and both race detectors, in one pass,
/// merged in trace order.
fn all(input: Input<'_>, settings: &Settings) -> Result<Analysis, CliError> {
    let tools = All {
        velodrome: Velodrome::with_config(engine_config(settings, true)),
        atomizer: Atomizer::new(),
        eraser: Eraser::new(),
        hb_race: HbRaceDetector::new(),
    };
    let (tools, mut analysis) = drive(tools, input, settings)?;
    velodrome_notes(&tools.velodrome, &mut analysis.notes);
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use velodrome_events::TraceBuilder;
    use velodrome_telemetry::names;

    fn rmw_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.begin("T1", "inc").read("T1", "x");
        b.write("T2", "x");
        b.write("T1", "x").end("T1");
        b.finish()
    }

    fn run(name: &str, trace: &Trace, settings: &Settings) -> Analysis {
        (lookup(name).unwrap().run)(trace.into(), settings).unwrap()
    }

    /// Runs `name` and returns the warning count and one final gauge.
    fn gauge_run(name: &str, trace: &Trace, gauge: &str) -> (usize, u64) {
        let analysis = run(name, trace, &Settings::default());
        (analysis.warnings.len(), analysis.stat(gauge).unwrap())
    }

    #[test]
    fn all_backends_run() {
        let trace = rmw_trace();
        for backend in BACKENDS {
            (backend.run)((&trace).into(), &Settings::default())
                .unwrap_or_else(|e| panic!("{}: {e}", backend.name));
        }
    }

    #[test]
    fn backend_names_are_unique_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for backend in BACKENDS {
            assert!(
                seen.insert(backend.name),
                "duplicate backend name `{}`",
                backend.name
            );
            let found = lookup(backend.name)
                .unwrap_or_else(|| panic!("`{}` is not found by lookup", backend.name));
            assert_eq!(
                (found.name, found.metered),
                (backend.name, backend.metered),
                "`{}` does not round-trip through lookup",
                backend.name
            );
        }
        assert!(lookup("no-such-backend").is_none());
    }

    #[test]
    fn velodrome_variants_agree_and_expose_stats() {
        let trace = rmw_trace();
        let (merged, merged_nodes) = gauge_run("velodrome", &trace, names::ARENA_ALLOCATED);
        let (unmerged, unmerged_nodes) =
            gauge_run("velodrome-nomerge", &trace, names::ARENA_ALLOCATED);
        assert_eq!(merged, 1);
        assert_eq!(unmerged, 1);
        assert!(unmerged_nodes >= merged_nodes);
    }

    #[test]
    fn hybrid_matches_velodrome_byte_for_byte() {
        let trace = rmw_trace();
        let pure = run("velodrome", &trace, &Settings::default());
        let hybrid = run("velodrome-hybrid", &trace, &Settings::default());
        assert_eq!(
            serde_json::to_string(&hybrid.warnings).unwrap(),
            serde_json::to_string(&pure.warnings).unwrap()
        );
        let (_, escalations) = gauge_run("velodrome-hybrid", &trace, names::HYBRID_ESCALATIONS);
        assert_eq!(escalations, 1);
        let aero = run("aerodrome", &trace, &Settings::default());
        assert_eq!(aero.warnings.len(), pure.warnings.len());
        assert!(aero.warnings.iter().all(|w| w.tool == "aerodrome"));
    }

    /// The two ways out of the stats surface agree: a metered backend's
    /// final `--metrics-out` snapshot carries exactly its `Analysis::stats`
    /// (plus the scheduler's watchdog gauges) as gauges.
    #[test]
    fn metrics_out_gauges_equal_analysis_stats() {
        let trace = rmw_trace();
        let dir = std::env::temp_dir().join("velodrome-backend-stats");
        std::fs::create_dir_all(&dir).unwrap();
        let watchdog = WatchdogStats {
            pauses_issued: 3,
            forced_deadline: 1,
            ..WatchdogStats::default()
        };
        for backend in BACKENDS.iter().filter(|b| b.metered) {
            let path = dir.join(format!("{}.jsonl", backend.name));
            let settings = Settings {
                telemetry: Telemetry::registry(),
                metrics: Some(Metrics {
                    path: path.display().to_string(),
                    interval: 2,
                    watchdog,
                }),
                ..Settings::default()
            };
            let analysis = (backend.run)((&trace).into(), &settings).unwrap();
            assert!(!analysis.stats.is_empty(), "{}", backend.name);
            let text = std::fs::read_to_string(&path).unwrap();
            let last: serde_json::Value =
                serde_json::from_str(text.lines().last().unwrap()).unwrap();
            let exported: BTreeMap<String, u64> = last["metrics"]
                .as_object()
                .unwrap()
                .iter()
                .filter(|(name, m)| m["type"] == "gauge" && !name.starts_with("phase."))
                .map(|(name, m)| (name.clone(), m["value"].as_u64().unwrap()))
                .collect();
            let expected: BTreeMap<String, u64> = analysis
                .stats
                .iter()
                .chain(&watchdog.gauges())
                .map(|&(name, v)| (name.to_owned(), v))
                .collect();
            assert_eq!(exported, expected, "{}", backend.name);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spec_exclusion_silences_the_block() {
        let trace = rmw_trace();
        let settings = Settings {
            spec: Some(AtomicitySpec::excluding([velodrome_events::Label::new(0)])),
            ..Settings::default()
        };
        for backend in BACKENDS {
            let analysis = (backend.run)((&trace).into(), &settings).unwrap();
            assert!(
                analysis
                    .warnings
                    .iter()
                    .all(|w| w.category != velodrome_monitor::WarningCategory::Atomicity),
                "{}: {:?}",
                backend.name,
                analysis.warnings
            );
        }
    }
}
