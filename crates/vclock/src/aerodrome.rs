//! AeroDrome-style vector-clock atomicity screening.
//!
//! Velodrome's graph engine pays node/edge maintenance for every
//! transaction even on the (overwhelmingly common) serializable prefix of a
//! trace. Mathur & Viswanathan's AeroDrome algorithm ("Atomicity Checking
//! in Linear Time using Vector Clocks") computes an atomicity verdict with
//! per-thread transactional vector clocks instead: each thread `t` carries
//! a clock `C_t`; entering an outermost atomic block increments `t`'s own
//! component, and that component value is the transaction's *local time*.
//! Every conflict edge the graph engine would draw (last write per
//! variable, reads-since-last-write per variable, last release per lock,
//! fork/join) becomes a clock join, and a transaction is doomed exactly
//! when it *observes its own time*: thread `t`, inside an active
//! transaction, joins a clock whose `t` component already carries the
//! current transaction's time — someone else is ordered after this
//! transaction, and this transaction is now ordered after them.
//!
//! Two refinements make the screen usable as a sound pre-filter for the
//! full engine (see `velodrome::hybrid`):
//!
//! * **Live joins.** When the joined value was published by a transaction
//!   that is *still active*, the publisher's current clock is joined
//!   instead of the published snapshot (everything the active transaction
//!   does — including dependencies it acquired after publishing — precedes
//!   the observer), and the publisher's transaction is marked `observed`.
//! * **Escalation flags.** Clocks compose along graph paths only when edge
//!   creation times are monotone along the path. The one place that fails
//!   is an active, already-observed transaction acquiring a *new*
//!   dependency: its observers' clocks are now stale. Whenever a join
//!   grows the clock of a thread inside an observed active transaction the
//!   screen raises [`Screen::escalate`] — a conservative "a cycle may form
//!   that these clocks cannot see" signal. Every cycle the graph engine
//!   can detect is preceded (or met) by a definite violation or an
//!   escalation flag, so a hybrid checker that switches to the graph
//!   engine on the first flag reproduces every Velodrome warning.
//!
//! The per-thread *version* counter is the FastTrack epoch idiom applied
//! to whole clocks: a publisher's version is bumped whenever its clock
//! grows, published entries carry the version they were snapshotted at,
//! and each thread remembers the last version per publisher it has fully
//! joined — a repeat join of an unchanged clock is a counter bump instead
//! of an `O(threads)` comparison.

use crate::clock::{ThreadSlots, VectorClock};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use velodrome_events::{Label, LockId, Op, ThreadId, VarId};
use velodrome_monitor::tool::{PerLabelDedup, Tool, Warning, WarningCategory};

/// Outcome of screening one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Screen {
    /// A transaction observed its own time: the trace prefix is
    /// definitely non-serializable.
    pub violation: bool,
    /// The clocks can no longer be trusted to see every future cycle
    /// (set on every violation, and on every join that grows the clock
    /// of an observed active transaction). A hybrid checker must engage
    /// the graph engine at or before this operation.
    pub escalate: bool,
}

impl Screen {
    fn merge(&mut self, other: Screen) {
        self.violation |= other.violation;
        self.escalate |= other.escalate;
    }
}

/// A published clock value: the last write per variable, the reads since
/// the last write per variable and thread, the last release per lock.
#[derive(Debug, Clone)]
struct Entry {
    /// The publishing thread's slot.
    thread: ThreadId,
    /// The publisher's transaction time at publish (its own clock
    /// component; outside a transaction, the component of its last one).
    time: u64,
    /// The publisher's clock version at publish (epoch fast path).
    version: u64,
    /// Snapshot of the publisher's clock at publish.
    clock: VectorClock,
}

#[derive(Debug, Default)]
struct ThreadState {
    clock: VectorClock,
    /// Bumped whenever `clock` grows (including the `begin` increment).
    version: u64,
    /// Per publisher thread: the highest version of that publisher's clock
    /// fully joined into `clock` by a *direct* join.
    seen: Vec<u64>,
    /// Nesting depth of open atomic blocks.
    depth: usize,
    /// The active transaction's local time (valid while `depth > 0`).
    txn_time: u64,
    /// Whether another thread has observed (live-joined) the active
    /// transaction. Cleared on outermost `begin`.
    observed: bool,
    /// Outermost open block label, for warning attribution.
    label: Option<Label>,
}

/// Counters for one screening run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AeroDromeStats {
    /// Operations observed.
    pub events: u64,
    /// Conflict-edge joins attempted (including fast-pathed ones).
    pub joins: u64,
    /// Joins resolved against a still-active publisher's live clock.
    pub live_joins: u64,
    /// Joins skipped because the publisher's clock version was already
    /// fully absorbed (the FastTrack-style fast path).
    pub epoch_hits: u64,
    /// Joins that actually grew the joining thread's clock.
    pub clock_growths: u64,
    /// Definite own-time violations.
    pub violations: u64,
    /// Conservative escalation flags raised without a definite violation.
    pub potential_flags: u64,
}

impl fmt::Display for AeroDromeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events, {} joins ({} live, {} epoch hits, {} growths), \
             {} violations, {} potential flags",
            self.events,
            self.joins,
            self.live_joins,
            self.epoch_hits,
            self.clock_growths,
            self.violations,
            self.potential_flags
        )
    }
}

/// The vector-clock atomicity screen.
///
/// As a standalone [`Tool`] it reports only *definite* violations
/// (transactions that observed their own time); escalation flags are
/// counted in [`AeroDromeStats::potential_flags`] and surfaced through
/// [`step`](Self::step) for the hybrid checker.
///
/// # Examples
///
/// ```
/// use velodrome_events::TraceBuilder;
/// use velodrome_monitor::run_tool;
/// use velodrome_vclock::AeroDrome;
///
/// // Thread 2's write interleaves with thread 1's read-modify-write.
/// let mut b = TraceBuilder::new();
/// b.begin("T1", "increment").read("T1", "counter");
/// b.write("T2", "counter");
/// b.write("T1", "counter").end("T1");
/// let mut screen = AeroDrome::new();
/// let warnings = run_tool(&mut screen, &b.finish());
/// assert_eq!(warnings.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct AeroDrome {
    slots: ThreadSlots,
    /// Per-thread state, indexed by slot; clocks are indexed by slot too.
    threads: Vec<ThreadState>,
    /// `W`: last write per variable.
    w: HashMap<VarId, Entry>,
    /// `R`: reads since the last write, per variable and thread (ordered
    /// by thread id so join order — and thus first-flag indices — is
    /// deterministic).
    r: HashMap<VarId, BTreeMap<ThreadId, Entry>>,
    /// `U`: last release per lock.
    u: HashMap<LockId, Entry>,
    warnings: Vec<Warning>,
    dedup: PerLabelDedup,
    stats: AeroDromeStats,
}

impl AeroDrome {
    /// Creates a screen with empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters for the run so far.
    pub fn stats(&self) -> AeroDromeStats {
        self.stats
    }

    fn thread_mut(&mut self, s: ThreadId) -> &mut ThreadState {
        let idx = s.index();
        if idx >= self.threads.len() {
            self.threads.resize_with(idx + 1, ThreadState::default);
        }
        &mut self.threads[idx]
    }

    /// Publishes the current clock of the thread in slot `s` as an entry.
    fn publish(&mut self, s: ThreadId) -> Entry {
        let st = self.thread_mut(s);
        Entry {
            thread: s,
            time: if st.depth > 0 {
                st.txn_time
            } else {
                st.clock.get(s)
            },
            version: st.version,
            clock: st.clock.clone(),
        }
    }

    /// Joins a published entry into the clock of the thread in slot `t`,
    /// resolving against the publisher's live clock when its transaction is
    /// still active, and returns the screening outcome for this edge.
    fn join_entry(&mut self, t: ThreadId, e: &Entry) -> Screen {
        let mut out = Screen::default();
        self.stats.joins += 1;
        if e.thread == t {
            // Program order: already contained in the thread's own clock.
            return out;
        }
        self.thread_mut(t);
        let up = self.thread_mut(e.thread);
        let live = up.depth > 0 && up.txn_time == e.time;
        let pub_version = up.version;
        let seen = self.threads[t.index()]
            .seen
            .get(e.thread.index())
            .copied()
            .unwrap_or(0);
        // Epoch fast path: everything this entry (or, for a live
        // publisher, its whole current clock) carries was already joined
        // directly. Safe to skip the comparison, the join, and — for live
        // publishers — the `observed` mark: the direct join that advanced
        // `seen` this far necessarily happened inside the same publisher
        // transaction (versions are bumped at `begin`) and marked it then.
        if seen >= if live { pub_version } else { e.version } {
            self.stats.epoch_hits += 1;
            return out;
        }
        let live_clock = if live {
            self.stats.live_joins += 1;
            self.threads[e.thread.index()].observed = true;
            Some(self.threads[e.thread.index()].clock.clone())
        } else {
            None
        };
        let (v, new_seen) = match &live_clock {
            Some(c) => (c, pub_version),
            None => (&e.clock, e.version),
        };
        let st = &mut self.threads[t.index()];
        if st.depth > 0 && v.get(t) >= st.txn_time {
            // The joined value already carries this transaction's time:
            // someone is ordered after us, and we are now ordered after
            // them. A definite cycle.
            out.violation = true;
            out.escalate = true;
        }
        if !v.le(&st.clock) {
            if st.depth > 0 && st.observed {
                // An observed active transaction gained a new dependency:
                // clocks already handed to its observers are stale, so a
                // cycle through them could go unseen. Escalate.
                out.escalate = true;
            }
            st.clock.join(v);
            st.version += 1;
            self.stats.clock_growths += 1;
        }
        if st.seen.len() <= e.thread.index() {
            st.seen.resize(e.thread.index() + 1, 0);
        }
        st.seen[e.thread.index()] = st.seen[e.thread.index()].max(new_seen);
        out
    }

    fn note(&mut self, out: Screen, s: ThreadId, op: Op, idx: usize) {
        if out.violation {
            self.stats.violations += 1;
            let label = self.thread_mut(s).label;
            if self.dedup.first_report(label) {
                let block = match label {
                    Some(l) => format!("atomic block {l}"),
                    None => "an atomic block".to_string(),
                };
                self.warnings.push(Warning {
                    tool: "aerodrome",
                    category: WarningCategory::Atomicity,
                    label,
                    thread: op.tid(),
                    op_index: idx,
                    message: format!(
                        "{block} observes its own transaction time at {op}: \
                         the trace is not conflict-serializable"
                    ),
                    details: None,
                });
            }
        } else if out.escalate {
            self.stats.potential_flags += 1;
        }
    }

    /// Screens one operation and reports whether it definitely violates
    /// atomicity and whether a hybrid checker must escalate to the graph
    /// engine. This is the entry point `velodrome`'s hybrid backend uses;
    /// the [`Tool`] impl wraps it with warning emission.
    pub fn step(&mut self, idx: usize, op: Op) -> Screen {
        self.stats.events += 1;
        let mut out = Screen::default();
        let s = self.slots.slot(op.tid());
        match op {
            Op::Begin { l, .. } => {
                let st = self.thread_mut(s);
                if st.depth == 0 {
                    st.clock.inc(s);
                    st.version += 1;
                    st.txn_time = st.clock.get(s);
                    st.observed = false;
                    st.label = Some(l);
                }
                st.depth += 1;
            }
            Op::End { .. } => {
                let st = self.thread_mut(s);
                if st.depth > 0 {
                    st.depth -= 1;
                    if st.depth == 0 {
                        st.label = None;
                    }
                }
            }
            Op::Read { t, x } => {
                if let Some(e) = self.w.get(&x).cloned() {
                    out.merge(self.join_entry(s, &e));
                }
                let entry = self.publish(s);
                self.r.entry(x).or_default().insert(t, entry);
            }
            Op::Write { x, .. } => {
                if let Some(e) = self.w.get(&x).cloned() {
                    out.merge(self.join_entry(s, &e));
                }
                let reads: Vec<Entry> = self
                    .r
                    .get(&x)
                    .map(|per| per.values().cloned().collect())
                    .unwrap_or_default();
                for e in &reads {
                    out.merge(self.join_entry(s, e));
                }
                let entry = self.publish(s);
                self.w.insert(x, entry);
                if let Some(per) = self.r.get_mut(&x) {
                    per.clear();
                }
            }
            Op::Acquire { m, .. } => {
                if let Some(e) = self.u.get(&m).cloned() {
                    out.merge(self.join_entry(s, &e));
                }
            }
            Op::Release { m, .. } => {
                let entry = self.publish(s);
                self.u.insert(m, entry);
            }
            Op::Fork { child, .. } => {
                let entry = self.publish(s);
                let child = self.slots.slot(child);
                out.merge(self.join_entry(child, &entry));
            }
            Op::Join { child, .. } => {
                let child = self.slots.slot(child);
                let entry = self.publish(child);
                out.merge(self.join_entry(s, &entry));
            }
        }
        self.note(out, s, op, idx);
        out
    }
}

impl Tool for AeroDrome {
    fn name(&self) -> &'static str {
        "aerodrome"
    }

    fn op(&mut self, index: usize, op: Op) {
        self.step(index, op);
    }

    fn take_warnings(&mut self) -> Vec<Warning> {
        std::mem::take(&mut self.warnings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome_events::{Trace, TraceBuilder};
    use velodrome_monitor::run_tool;

    fn screen_trace(trace: &Trace) -> (Vec<Warning>, AeroDromeStats, Option<usize>) {
        let mut s = AeroDrome::new();
        let mut first_flag = None;
        for (i, op) in trace.iter() {
            let out = s.step(i, op);
            if out.escalate && first_flag.is_none() {
                first_flag = Some(i);
            }
        }
        (std::mem::take(&mut s.warnings), s.stats(), first_flag)
    }

    #[test]
    fn interleaved_rmw_is_a_definite_violation() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "inc").read("T1", "x");
        b.write("T2", "x");
        b.write("T1", "x").end("T1");
        let (warnings, stats, flag) = screen_trace(&b.finish());
        assert_eq!(warnings.len(), 1);
        assert_eq!(stats.violations, 1);
        assert_eq!(flag, Some(3), "flagged at T1's re-write");
        assert!(warnings[0].message.contains("observes its own transaction"));
    }

    #[test]
    fn serialized_rmw_is_clean() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "inc").read("T1", "x").write("T1", "x");
        b.end("T1");
        b.begin("T2", "inc").read("T2", "x").write("T2", "x");
        b.end("T2");
        let (warnings, stats, flag) = screen_trace(&b.finish());
        assert!(warnings.is_empty());
        assert_eq!(stats.violations, 0);
        assert_eq!(flag, None);
    }

    #[test]
    fn late_dependency_cycle_raises_escalation_before_closing() {
        // A -> B -> C -> A, where B's dependency on A arrives only after
        // C snapshotted B: no thread ever observes its own time through
        // the snapshots, so the definite check alone would miss the
        // cycle. The escalation flag must fire when B (active, already
        // observed by C) grows its clock.
        let mut b = TraceBuilder::new();
        b.begin("B", "b").write("B", "x");
        b.begin("A", "a").write("A", "y");
        b.begin("C", "c").read("C", "x"); // C observes B (live).
        b.read("B", "y"); // B gains A *after* being observed.
        b.write("C", "z").end("C");
        b.read("A", "z").end("A");
        b.end("B");
        let trace = b.finish();
        let (_, stats, flag) = screen_trace(&trace);
        assert!(
            flag.is_some() && flag.unwrap() <= 6,
            "escalation must fire at or before B's read of y (flag: {flag:?})"
        );
        assert!(stats.potential_flags >= 1);
        // The graph engine does find this cycle — the integration crate's
        // corpus test (`three_txn_late_edge`) pins that agreement.
    }

    #[test]
    fn cycle_through_own_earlier_transaction_is_flagged() {
        // T1's *finished* first transaction and its active second one
        // both participate in a cycle with T2's long transaction. The
        // cycle closes on an edge from T1's own old write, which the
        // screen cannot see from T1's side; it must fire from T2's.
        let mut b = TraceBuilder::new();
        b.begin("T2", "long").write("T2", "b");
        b.begin("T1", "old").read("T1", "b"); // old observes T2 (live).
        b.write("T1", "x").end("T1");
        b.begin("T1", "cur").write("T1", "y");
        b.read("T2", "y"); // T2 now after `cur`... and before `old`.
        b.end("T2");
        b.read("T1", "x").end("T1"); // engine closes the cycle here.
        let trace = b.finish();
        let (warnings, _, flag) = screen_trace(&trace);
        assert!(!warnings.is_empty(), "T2 observes its own time");
        assert!(flag.unwrap() <= 8, "flag at T2's read of y: {flag:?}");
        // The corpus test (`finished_middle_txn`) pins the engine's
        // agreement on this trace.
    }

    #[test]
    fn fanin_stress_never_escalates_and_hits_the_fast_path() {
        // The serializable fan-in stress workload: every thread does its
        // reads before being observed, and later rounds re-join clocks
        // that have not grown — the epoch fast path absorbs them.
        let mut b = TraceBuilder::new();
        let threads: Vec<String> = (0..4).map(|i| format!("T{i}")).collect();
        let vars: Vec<String> = (0..4).map(|i| format!("v{i}")).collect();
        for w in 0..3 {
            for (t, v) in threads.iter().zip(&vars) {
                b.begin(t, &format!("wave{w}"));
                b.write(t, v);
            }
            for _ in 0..2 {
                for (i, t) in threads.iter().enumerate() {
                    for v in vars[..i].iter().rev() {
                        b.read(t, v);
                    }
                }
            }
            for t in &threads {
                b.end(t);
            }
        }
        let (warnings, stats, flag) = screen_trace(&b.finish());
        assert!(warnings.is_empty());
        assert_eq!(flag, None, "no escalation on the serializable workload");
        // Every round-2 re-join is absorbed by the fast path: 3 waves of
        // 6 repeated reads each.
        assert!(stats.epoch_hits >= 18, "{stats}");
    }

    #[test]
    fn fork_based_violation_is_definite() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "parent").write("T1", "x");
        b.fork("T1", "T2");
        b.write("T2", "x");
        b.read("T1", "x").end("T1");
        let (warnings, stats, _) = screen_trace(&b.finish());
        assert_eq!(warnings.len(), 1);
        assert_eq!(stats.violations, 1);
    }

    #[test]
    fn fork_join_ordering_is_clean() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "parent").write("T1", "x");
        b.fork("T1", "T2");
        b.read("T1", "x").end("T1");
        b.write("T2", "x");
        b.join("T1", "T2");
        b.begin("T1", "after").read("T1", "x").end("T1");
        let (warnings, _, flag) = screen_trace(&b.finish());
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(flag, None);
    }

    #[test]
    fn lock_cycle_within_one_transaction_is_definite() {
        // T1's transaction releases m, T2 acquires/releases it, and T1
        // re-acquires inside the same transaction: T2's critical section
        // is both after and before T1's transaction.
        let mut b = TraceBuilder::new();
        b.begin("T1", "t").acquire("T1", "m").release("T1", "m");
        b.acquire("T2", "m").release("T2", "m");
        b.acquire("T1", "m").release("T1", "m").end("T1");
        let (warnings, _, flag) = screen_trace(&b.finish());
        assert_eq!(warnings.len(), 1);
        assert!(flag.is_some());
    }

    #[test]
    fn non_transactional_conflicts_are_not_violations() {
        let mut b = TraceBuilder::new();
        b.write("T1", "x").write("T2", "x").read("T1", "x");
        b.end("T1"); // stray end: tolerated.
        let (warnings, stats, flag) = screen_trace(&b.finish());
        assert!(warnings.is_empty());
        assert_eq!(stats.violations, 0);
        assert_eq!(flag, None);
    }

    #[test]
    fn repeat_reads_hit_the_epoch_fast_path() {
        let mut b = TraceBuilder::new();
        b.begin("T1", "init").write("T1", "x").end("T1");
        for _ in 0..8 {
            b.read("T2", "x");
        }
        let mut s = AeroDrome::new();
        run_tool(&mut s, &b.finish());
        let stats = s.stats();
        assert!(stats.epoch_hits >= 7, "{stats}");
        assert_eq!(stats.clock_growths, 1, "{stats}");
    }

    #[test]
    fn per_label_dedup_reports_each_block_once() {
        let mut b = TraceBuilder::new();
        for _ in 0..3 {
            b.begin("T1", "inc").read("T1", "x");
            b.write("T2", "x");
            b.write("T1", "x").end("T1");
        }
        let (warnings, stats, _) = screen_trace(&b.finish());
        assert_eq!(warnings.len(), 1, "one warning per label");
        assert!(stats.violations >= 1);
    }
}
