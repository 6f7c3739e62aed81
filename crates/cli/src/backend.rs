//! The backend registry: every analysis `--backend=NAME` can select, in one
//! table.
//!
//! The CLI (`check`, `trace`, `replay`, `compare`), the batch runner, and
//! the benchmark harness all iterate [`BACKENDS`] or look names up in it,
//! so adding a backend takes one entry. Each entry's `run` is a plain
//! function over the concrete tool type: dispatch happens once per trace,
//! and the per-operation loop stays monomorphic.

use crate::{err, io_err, CliError, USAGE};
use velodrome::{HybridConfig, HybridVelodrome, Velodrome, VelodromeConfig};
use velodrome_atomizer::Atomizer;
use velodrome_events::Trace;
use velodrome_lockset::{Eraser, StrictTwoPhase};
use velodrome_monitor::{
    run_tool, AtomicitySpec, DegradationLevel, EmptyTool, ResourceBudget, SpecFilter, Tool, Warning,
};
use velodrome_sim::WatchdogStats;
use velodrome_telemetry::{JsonlExporter, SnapshotRing, Telemetry};
use velodrome_vclock::HbRaceDetector;

/// Warnings plus analysis-health notes (budget suppression, degradation,
/// screen escalation) that the text renderer appends after the warnings.
#[derive(Debug)]
pub struct Analysis {
    /// The backend's warnings, in trace order.
    pub warnings: Vec<Warning>,
    /// Analysis-health notes.
    pub notes: Vec<String>,
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
    /// Registry the engines time their phases into. When it is enabled and
    /// no `metrics` file is requested, metered backends publish their final
    /// gauges into it after the run.
    pub telemetry: Telemetry,
    /// Check only the blocks this spec selects (the Table 1
    /// configuration); `None` checks every block.
    pub spec: Option<AtomicitySpec>,
    /// Stream snapshots to a file while the trace runs (`--metrics-out`).
    /// Only metered backends write them.
    pub metrics: Option<Metrics>,
}

/// One registered backend.
#[derive(Debug)]
pub struct Backend {
    /// The name `--backend=` takes.
    pub name: &'static str,
    /// Whether the backend publishes the engine's telemetry, i.e. accepts
    /// `--metrics-out`.
    pub metered: bool,
    /// Runs the backend over one trace.
    pub run: fn(&Trace, &Settings) -> Result<Analysis, CliError>,
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

/// Publishes a tool's statistics into a registry.
type Publish<'a, T> = &'a dyn Fn(&T, &Telemetry);

/// Runs `tool` over the trace as `settings` asks — through the spec
/// filter when a spec is set, metered when the tool can publish — and
/// hands the tool back for its final statistics.
fn drive<T: Tool>(
    tool: T,
    trace: &Trace,
    settings: &Settings,
    publish: Option<Publish<'_, T>>,
) -> Result<(T, Analysis), CliError> {
    let Some(spec) = &settings.spec else {
        let mut tool = tool;
        let analysis = feed(&mut tool, trace, settings, publish)?;
        return Ok((tool, analysis));
    };
    let mut filtered = SpecFilter::new(spec.clone(), tool);
    let inner = publish.map(|p| move |f: &SpecFilter<T>, t: &Telemetry| p(f.inner(), t));
    let analysis = feed(
        &mut filtered,
        trace,
        settings,
        inner.as_ref().map(|p| p as Publish<'_, SpecFilter<T>>),
    )?;
    Ok((filtered.into_inner(), analysis))
}

fn feed<T: Tool>(
    tool: &mut T,
    trace: &Trace,
    settings: &Settings,
    publish: Option<Publish<'_, T>>,
) -> Result<Analysis, CliError> {
    let mut notes = Vec::new();
    let warnings = match (publish, &settings.metrics) {
        (Some(publish), Some(metrics)) => {
            let (warnings, lines) = run_metered(tool, trace, settings, metrics, publish)?;
            notes.push(format!(
                "{lines} metric snapshots written to {}",
                metrics.path
            ));
            warnings
        }
        (Some(publish), None) => {
            let warnings = run_tool(tool, trace);
            // A caller-provided registry without a metrics file (the batch
            // runner, the bench) still wants the final gauges.
            if settings.telemetry.is_enabled() {
                publish(tool, &settings.telemetry);
            }
            warnings
        }
        (None, _) => run_tool(tool, trace),
    };
    Ok(Analysis { warnings, notes })
}

/// Drives the tool over the trace one operation at a time, mirroring the
/// registry into a JSONL file every `interval` events (plus a final
/// snapshot, so at least one line is always written). Also keeps the last
/// few snapshots in a [`SnapshotRing`], matching how a long-running monitor
/// would retain recent history.
fn run_metered<T: Tool>(
    tool: &mut T,
    trace: &Trace,
    settings: &Settings,
    metrics: &Metrics,
    publish: Publish<'_, T>,
) -> Result<(Vec<Warning>, u64), CliError> {
    let path = metrics.path.as_str();
    let telemetry = &settings.telemetry;
    let file = std::fs::File::create(path).map_err(|e| io_err(format!("creating {path}: {e}")))?;
    let mut exporter = JsonlExporter::new(std::io::BufWriter::new(file));
    let mut ring = SnapshotRing::new(64);
    let mut seq = 0u64;
    let mut emit = |tool: &T, events: u64| -> Result<(), CliError> {
        publish(tool, telemetry);
        metrics.watchdog.publish(telemetry);
        if let Some(snap) = telemetry.snapshot(seq, events) {
            exporter
                .export(&snap)
                .map_err(|e| io_err(format!("writing {path}: {e}")))?;
            ring.push(snap);
            seq += 1;
        }
        Ok(())
    };
    for (i, op) in trace.iter() {
        tool.op(i, op);
        let events = i as u64 + 1;
        if events % metrics.interval == 0 {
            emit(tool, events)?;
        }
    }
    tool.end_of_trace();
    emit(tool, trace.len() as u64)?;
    Ok((tool.take_warnings(), exporter.lines_written()))
}

fn engine_config(trace: &Trace, settings: &Settings, merge: bool) -> VelodromeConfig {
    VelodromeConfig {
        names: trace.names().clone(),
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

fn run_velodrome(trace: &Trace, settings: &Settings, merge: bool) -> Result<Analysis, CliError> {
    let engine = Velodrome::with_config(engine_config(trace, settings, merge));
    let (engine, mut analysis) = drive(
        engine,
        trace,
        settings,
        Some(&Velodrome::publish_telemetry_to),
    )?;
    let stats = engine.stats();
    if stats.warnings_suppressed > 0 {
        analysis.notes.push(format!(
            "{} warnings suppressed (budget)",
            stats.warnings_suppressed
        ));
    }
    if stats.ladder != DegradationLevel::Full {
        analysis.notes.push(format!(
            "analysis degraded to {} ({} transitions, {} vars quarantined) — \
             warnings after the degradation point may be incomplete",
            stats.ladder, stats.degradations, stats.vars_quarantined
        ));
    }
    Ok(analysis)
}

fn run_hybrid(
    trace: &Trace,
    settings: &Settings,
    verdict_only: bool,
) -> Result<Analysis, CliError> {
    let checker = HybridVelodrome::with_config(HybridConfig {
        engine: engine_config(trace, settings, true),
        max_window: settings.window,
        verdict_only,
    });
    let (checker, mut analysis) = drive(
        checker,
        trace,
        settings,
        Some(&HybridVelodrome::publish_telemetry_to),
    )?;
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

fn unmetered<T: Tool>(tool: T, trace: &Trace, settings: &Settings) -> Result<Analysis, CliError> {
    Ok(drive(tool, trace, settings, None)?.1)
}

/// The paper's checker with every optimization.
fn velodrome(trace: &Trace, settings: &Settings) -> Result<Analysis, CliError> {
    run_velodrome(trace, settings, true)
}

/// The naive Figure 2 rule: one node per operation outside a transaction.
fn velodrome_nomerge(trace: &Trace, settings: &Settings) -> Result<Analysis, CliError> {
    run_velodrome(trace, settings, false)
}

/// Vector-clock screen online, graph engine on escalation; warnings
/// byte-identical to `velodrome`.
fn velodrome_hybrid(trace: &Trace, settings: &Settings) -> Result<Analysis, CliError> {
    run_hybrid(trace, settings, false)
}

/// The same two tiers, verdict-only output.
fn aerodrome(trace: &Trace, settings: &Settings) -> Result<Analysis, CliError> {
    run_hybrid(trace, settings, true)
}

fn atomizer(trace: &Trace, settings: &Settings) -> Result<Analysis, CliError> {
    unmetered(Atomizer::new(), trace, settings)
}

fn eraser(trace: &Trace, settings: &Settings) -> Result<Analysis, CliError> {
    unmetered(Eraser::new(), trace, settings)
}

fn hb_race(trace: &Trace, settings: &Settings) -> Result<Analysis, CliError> {
    unmetered(HbRaceDetector::new(), trace, settings)
}

fn s2pl(trace: &Trace, settings: &Settings) -> Result<Analysis, CliError> {
    unmetered(StrictTwoPhase::new(), trace, settings)
}

/// Instrumentation only: Table 1's denominator.
fn empty(trace: &Trace, settings: &Settings) -> Result<Analysis, CliError> {
    let (tool, analysis) = drive(EmptyTool::new(), trace, settings, None)?;
    // Observe the count, so the loop being timed cannot be optimized away.
    std::hint::black_box(tool.ops_seen());
    Ok(analysis)
}

/// Velodrome plus the atomizer and both race detectors, merged in trace
/// order.
fn all(trace: &Trace, settings: &Settings) -> Result<Analysis, CliError> {
    let mut result = velodrome(trace, settings)?;
    for run in [atomizer, eraser, hb_race] {
        result.warnings.extend(run(trace, settings)?.warnings);
    }
    result.warnings.sort_by_key(|w| w.op_index);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        (lookup(name).unwrap().run)(trace, settings).unwrap()
    }

    /// Runs `name` against a fresh registry and returns the warning count
    /// and one final gauge.
    fn gauge_run(name: &str, trace: &Trace, gauge: &str) -> (usize, u64) {
        let settings = Settings {
            telemetry: Telemetry::registry(),
            ..Settings::default()
        };
        let warnings = run(name, trace, &settings).warnings.len();
        let snap = settings.telemetry.snapshot(0, trace.len() as u64).unwrap();
        (warnings, snap.scalar(gauge).unwrap())
    }

    #[test]
    fn all_backends_run() {
        let trace = rmw_trace();
        for backend in BACKENDS {
            (backend.run)(&trace, &Settings::default())
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

    #[test]
    fn spec_exclusion_silences_the_block() {
        let trace = rmw_trace();
        let settings = Settings {
            spec: Some(AtomicitySpec::excluding([velodrome_events::Label::new(0)])),
            ..Settings::default()
        };
        for backend in BACKENDS {
            let analysis = (backend.run)(&trace, &settings).unwrap();
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
