//! The metric registry and its lock-cheap update handles.
//!
//! The registry mutex is taken only when a metric is (re-)registered or a
//! snapshot is collected; [`Counter`], [`Gauge`], and [`PhaseTimer`]
//! handles hold an `Arc` straight to the metric's atomic storage, so
//! hot-path updates are contention-free relaxed atomics.

use crate::snapshot::{MetricValue, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug)]
pub(crate) struct PhaseInner {
    pub(crate) count: AtomicU64,
    pub(crate) total_nanos: AtomicU64,
    pub(crate) max_nanos: AtomicU64,
}

impl PhaseInner {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Relaxed);
        self.total_nanos.fetch_add(nanos, Relaxed);
        self.max_nanos.fetch_max(nanos, Relaxed);
    }
}

/// One registered metric: the tag decides how a snapshot renders it.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Phase(Arc<PhaseInner>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Phase(_) => "phase",
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// Handle to a telemetry registry, or the no-op disabled handle. Cloning is
/// cheap (an `Arc` bump); all clones share the same registry.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<RegistryInner>>,
}

impl Telemetry {
    /// The no-op handle: every metric it hands out discards updates, and
    /// phase timers never read the clock. This is the default everywhere,
    /// so telemetry costs one never-taken branch unless a registry is
    /// explicitly attached.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Creates a fresh, enabled registry.
    ///
    /// With the (default-on) `enabled` cargo feature switched off this also
    /// returns the disabled handle, compiling telemetry out of the build
    /// without touching call sites.
    pub fn registry() -> Self {
        #[cfg(feature = "enabled")]
        {
            Self {
                inner: Some(Arc::new(RegistryInner::default())),
            }
        }
        #[cfg(not(feature = "enabled"))]
        {
            Self::disabled()
        }
    }

    /// `true` when updates on handles from this registry are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Option<Metric> {
        let inner = self.inner.as_ref()?;
        let mut metrics = inner.metrics.lock().expect("telemetry registry poisoned");
        let metric = metrics.entry(name.to_owned()).or_insert_with(make);
        Some(metric.clone())
    }

    /// Registers (or resolves) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, || Metric::Counter(Arc::new(AtomicU64::new(0)))) {
            Some(Metric::Counter(c)) => Counter(Some(c)),
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => Counter(None),
        }
    }

    /// Registers (or resolves) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, || Metric::Gauge(Arc::new(AtomicU64::new(0)))) {
            Some(Metric::Gauge(g)) => Gauge(Some(g)),
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => Gauge(None),
        }
    }

    /// Registers (or resolves) the phase timer `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn phase(&self, name: &str) -> PhaseTimer {
        match self.register(name, || Metric::Phase(Arc::new(PhaseInner::new()))) {
            Some(Metric::Phase(p)) => PhaseTimer(Some(p)),
            Some(other) => panic!("metric `{name}` already registered as {}", other.kind()),
            None => PhaseTimer(None),
        }
    }

    /// Sets each named gauge, registering it if needed: how a stats
    /// struct's `gauges()` table reaches the registry before a snapshot.
    /// A no-op on the disabled handle.
    pub fn publish(&self, gauges: &[(&str, u64)]) {
        if self.inner.is_some() {
            for &(name, value) in gauges {
                self.gauge(name).set(value);
            }
        }
    }

    /// Collects a point-in-time copy of every registered metric. Returns
    /// `None` on the disabled handle.
    pub fn snapshot(&self, seq: u64, events: u64) -> Option<Snapshot> {
        let inner = self.inner.as_ref()?;
        let metrics = inner.metrics.lock().expect("telemetry registry poisoned");
        let values = metrics
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.load(Relaxed)),
                    Metric::Gauge(g) => MetricValue::Gauge(g.load(Relaxed)),
                    Metric::Phase(p) => MetricValue::Phase {
                        count: p.count.load(Relaxed),
                        total_nanos: p.total_nanos.load(Relaxed),
                        max_nanos: p.max_nanos.load(Relaxed),
                    },
                };
                (name.clone(), value)
            })
            .collect();
        Some(Snapshot {
            seq,
            events,
            metrics: values,
        })
    }
}

/// A monotonically increasing count. Updates are relaxed atomics; the
/// disabled handle discards them.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op counter (what the disabled registry hands out).
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Relaxed);
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 on the disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }
}

/// A last-write-wins value. Updates are relaxed atomics; the disabled
/// handle discards them.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A no-op gauge (what the disabled registry hands out).
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Relaxed);
        }
    }

    /// Current value (0 on the disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Relaxed))
    }
}

/// A span-style timer: each completed span records its duration (count,
/// total, max nanoseconds). On the disabled handle, [`start`](Self::start)
/// never reads the clock.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimer(Option<Arc<PhaseInner>>);

impl PhaseTimer {
    /// A no-op timer (what the disabled registry hands out).
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Opens a span; the returned guard records the duration when dropped.
    /// The guard owns its storage, so it outlives any borrow of `self`.
    pub fn start(&self) -> PhaseGuard {
        PhaseGuard(self.0.as_ref().map(|p| (Arc::clone(p), Instant::now())))
    }

    /// Times one closure call as a span.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.start();
        f()
    }

    /// Spans completed so far (0 on the disabled handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |p| p.count.load(Relaxed))
    }

    /// Total nanoseconds across completed spans (0 on the disabled handle).
    pub fn total_nanos(&self) -> u64 {
        self.0.as_ref().map_or(0, |p| p.total_nanos.load(Relaxed))
    }
}

/// Guard returned by [`PhaseTimer::start`]; records the span on drop.
#[derive(Debug)]
pub struct PhaseGuard(Option<(Arc<PhaseInner>, Instant)>);

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((phase, start)) = self.0.take() {
            phase.record(start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_noops() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let c = t.counter("c");
        c.add(5);
        assert_eq!(c.get(), 0);
        t.gauge("g").set(7);
        assert_eq!(t.gauge("g").get(), 0);
        assert!(t.snapshot(0, 0).is_none());
        let p = t.phase("p");
        p.time(|| ());
        assert_eq!(p.count(), 0);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn counters_and_gauges_round_trip_through_clones() {
        let t = Telemetry::registry();
        let c = t.counter("hits");
        c.add(2);
        c.incr();
        // A second handle to the same name shares storage.
        assert_eq!(t.counter("hits").get(), 3);
        let t2 = t.clone();
        t2.gauge("depth").set(9);
        assert_eq!(t.gauge("depth").get(), 9);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn phase_timer_records_spans() {
        let t = Telemetry::registry();
        let p = t.phase("work");
        p.time(|| std::hint::black_box(41 + 1));
        {
            let _g = p.start();
        }
        assert_eq!(p.count(), 2);
        let snap = t.snapshot(0, 10).unwrap();
        match &snap.metrics["work"] {
            MetricValue::Phase { count, .. } => assert_eq!(*count, 2),
            other => panic!("expected phase, got {other:?}"),
        }
    }

    #[cfg(feature = "enabled")]
    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let t = Telemetry::registry();
        t.counter("x");
        t.gauge("x");
    }
}
