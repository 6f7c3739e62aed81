//! Schedulers controlling the interleaving of simulated threads.
//!
//! Besides deterministic round-robin and seeded-random schedulers, this
//! module implements the paper's *adversarial scheduling* (Sections 5/6):
//! an analysis running alongside execution flags operations that might lead
//! to an atomicity violation, and the scheduler temporarily suspends the
//! flagged thread so that other threads get a chance to perform conflicting
//! operations — turning a *potential* violation into a concrete witness
//! that the (complete) checker can then report.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use velodrome_events::{Op, ThreadId};

/// Information available to a scheduler when choosing the next thread.
#[derive(Debug)]
pub struct SchedView<'a> {
    /// Threads that can take a step right now.
    pub runnable: &'a [ThreadId],
    /// For each runnable thread, the operation it would emit (or `None` for
    /// a local-compute step).
    pub next_ops: &'a [Option<Op>],
    /// Scheduler steps taken so far.
    pub step: u64,
}

/// Chooses which runnable thread steps next.
pub trait Scheduler {
    /// Returns an index into `view.runnable`.
    fn pick(&mut self, view: &SchedView<'_>) -> usize;

    /// Observes each emitted operation (default: ignored).
    fn observe(&mut self, _index: usize, _op: Op) {}
}

impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn pick(&mut self, view: &SchedView<'_>) -> usize {
        (**self).pick(view)
    }
    fn observe(&mut self, index: usize, op: Op) {
        (**self).observe(index, op)
    }
}

impl Scheduler for Box<dyn Scheduler> {
    fn pick(&mut self, view: &SchedView<'_>) -> usize {
        (**self).pick(view)
    }
    fn observe(&mut self, index: usize, op: Op) {
        (**self).observe(index, op)
    }
}

/// Deterministic round-robin: repeatedly cycles through thread identifiers.
#[derive(Debug, Clone)]
pub struct RoundRobin {
    last: u32,
}

impl Default for RoundRobin {
    fn default() -> Self {
        // Start "before" thread 0 so the first pick is the lowest id.
        Self { last: u32::MAX }
    }
}

impl RoundRobin {
    /// Creates a round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobin {
    fn pick(&mut self, view: &SchedView<'_>) -> usize {
        // Choose the runnable thread with the smallest id greater than the
        // last-run thread, wrapping around.
        let chosen = view
            .runnable
            .iter()
            .enumerate()
            .filter(|(_, t)| t.raw() > self.last)
            .min_by_key(|(_, t)| t.raw())
            .or_else(|| {
                view.runnable
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| t.raw())
            })
            .map(|(i, _)| i)
            .expect("pick called with runnable threads");
        self.last = view.runnable[chosen].raw();
        chosen
    }
}

/// Seeded uniform-random scheduler; different seeds explore different
/// interleavings deterministically.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates a random scheduler from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, view: &SchedView<'_>) -> usize {
        self.rng.gen_range(0..view.runnable.len())
    }
}

/// A scheduler that greedily runs one thread as long as possible (useful
/// for generating near-serial baseline traces).
#[derive(Debug, Clone, Default)]
pub struct Sticky {
    current: Option<ThreadId>,
}

impl Sticky {
    /// Creates a sticky scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for Sticky {
    fn pick(&mut self, view: &SchedView<'_>) -> usize {
        if let Some(cur) = self.current {
            if let Some(i) = view.runnable.iter().position(|&t| t == cur) {
                return i;
            }
        }
        self.current = Some(view.runnable[0]);
        0
    }
}

/// PCT-style priority scheduler (Burckhardt et al., *A Randomized Scheduler
/// with Probabilistic Guarantees of Finding Bugs*): every thread gets a
/// random priority; the highest-priority runnable thread always runs, and
/// at `depth - 1` pre-chosen random steps the running thread's priority is
/// demoted below everyone else's. Small `depth` values provide probabilistic
/// coverage guarantees for bugs of small "interleaving depth" — a good
/// match for check-then-act atomicity defects (depth 2).
#[derive(Debug)]
pub struct PctScheduler {
    rng: StdRng,
    priorities: HashMap<ThreadId, u64>,
    change_points: Vec<u64>,
    /// Decreasing counter handing out ever-lower priorities at change points.
    demotion_floor: u64,
}

impl PctScheduler {
    /// Creates a PCT scheduler for runs of roughly `max_steps` steps with
    /// the given bug depth (`depth >= 1`).
    pub fn new(seed: u64, max_steps: u64, depth: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut change_points: Vec<u64> = (1..depth)
            .map(|_| rng.gen_range(0..max_steps.max(1)))
            .collect();
        change_points.sort_unstable();
        Self {
            rng,
            priorities: HashMap::new(),
            change_points,
            demotion_floor: 1 << 16,
        }
    }

    fn priority(&mut self, t: ThreadId) -> u64 {
        if let Some(&p) = self.priorities.get(&t) {
            return p;
        }
        // New threads draw a random priority above the demotion band.
        let p = (1 << 17) + (self.rng.gen_range(0..1u64 << 32) << 4) + u64::from(t.raw() & 0xf);
        self.priorities.insert(t, p);
        p
    }
}

impl Scheduler for PctScheduler {
    fn pick(&mut self, view: &SchedView<'_>) -> usize {
        // Highest-priority runnable thread.
        let chosen = (0..view.runnable.len())
            .max_by_key(|&i| self.priority(view.runnable[i]))
            .expect("pick called with runnable threads");
        // Priority change point: demote the chosen thread below everyone.
        if self
            .change_points
            .first()
            .is_some_and(|&cp| view.step >= cp)
        {
            self.change_points.remove(0);
            self.demotion_floor -= 1;
            let t = view.runnable[chosen];
            self.priorities.insert(t, self.demotion_floor);
        }
        chosen
    }
}

/// Source of "this operation might lead to an atomicity violation" hints,
/// typically backed by the Atomizer's reduction analysis.
pub trait PauseAdvisor {
    /// Observes each emitted operation to maintain analysis state.
    fn observe(&mut self, index: usize, op: Op);

    /// Should the thread about to perform `op` be suspended for a while to
    /// invite conflicting operations from other threads?
    fn should_delay(&mut self, t: ThreadId, op: Op) -> bool;
}

/// A [`PauseAdvisor`] that never delays (adversarial scheduling disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverDelay;

impl PauseAdvisor for NeverDelay {
    fn observe(&mut self, _index: usize, _op: Op) {}
    fn should_delay(&mut self, _t: ThreadId, _op: Op) -> bool {
        false
    }
}

/// Restricts pausing to non-exempt threads (the paper also explores
/// "allowing some threads to never pause").
#[derive(Debug)]
pub struct ExemptThreads<A> {
    inner: A,
    exempt: std::collections::HashSet<ThreadId>,
}

impl<A: PauseAdvisor> ExemptThreads<A> {
    /// Wraps `inner`; the listed threads are never paused.
    pub fn new(inner: A, exempt: impl IntoIterator<Item = ThreadId>) -> Self {
        Self {
            inner,
            exempt: exempt.into_iter().collect(),
        }
    }
}

impl<A: PauseAdvisor> PauseAdvisor for ExemptThreads<A> {
    fn observe(&mut self, index: usize, op: Op) {
        self.inner.observe(index, op);
    }
    fn should_delay(&mut self, t: ThreadId, op: Op) -> bool {
        !self.exempt.contains(&t) && self.inner.should_delay(t, op)
    }
}

/// Telemetry of the [`AdversarialScheduler`]'s pause watchdog: why pauses
/// ended, so a run can prove no thread was starved indefinitely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchdogStats {
    /// Pauses issued on the advisor's suspicion.
    pub pauses_issued: u64,
    /// Pause waivers because the paused thread was the *only* runnable one.
    pub forced_sole_runnable: u64,
    /// Pause waivers because every runnable thread was paused at once.
    pub forced_all_paused: u64,
    /// Pause waivers because the global pause-step deadline expired.
    pub forced_deadline: u64,
}

impl WatchdogStats {
    /// Total forced resumes, across all reasons.
    pub fn forced_total(&self) -> u64 {
        self.forced_sole_runnable + self.forced_all_paused + self.forced_deadline
    }

    /// The `watchdog.*` gauges: the one place these fields are paired with
    /// their [`velodrome_telemetry::names`].
    pub fn gauges(&self) -> Vec<(&'static str, u64)> {
        use velodrome_telemetry::names;
        vec![
            (names::WATCHDOG_PAUSES_ISSUED, self.pauses_issued),
            (
                names::WATCHDOG_FORCED_SOLE_RUNNABLE,
                self.forced_sole_runnable,
            ),
            (names::WATCHDOG_FORCED_ALL_PAUSED, self.forced_all_paused),
            (names::WATCHDOG_FORCED_DEADLINE, self.forced_deadline),
        ]
    }
}

/// The paper's adversarial scheduler: wraps an inner scheduler and suspends
/// threads flagged by a [`PauseAdvisor`] for `pause_steps` scheduler steps
/// (the analogue of the paper's 100 ms delay).
///
/// A *pause watchdog* guarantees the pause logic can never deadlock or
/// starve the host workload:
///
/// * if every runnable thread is paused (including the sole-runnable
///   special case), all pauses are waived immediately — the equivalent of
///   the paper's delay timing out;
/// * a global pause-step deadline (default `4 × pause_steps + 16`, counted
///   from the first outstanding pause) force-resumes every paused thread
///   even when other threads are runnable, bounding the total delay any
///   configuration can inject;
/// * every force-resumed thread backs off exponentially: each forced
///   resume halves that thread's subsequent pause lengths, so a thread the
///   workload keeps depending on stops being re-paused for long. Serving a
///   full pause to expiry resets the backoff.
///
/// Forced resumes are counted per reason in [`WatchdogStats`]. With no
/// forced resume the scheduling stream is identical to the un-hardened
/// scheduler's.
#[derive(Debug)]
pub struct AdversarialScheduler<A, S> {
    advisor: A,
    inner: S,
    pause_steps: u64,
    /// Global deadline: the longest any pause episode may last.
    deadline: u64,
    /// Step at which the current pause episode hits the deadline; set when
    /// the first pause of an episode is issued, cleared when none remain.
    deadline_at: Option<u64>,
    /// Thread → step until which it is paused.
    paused: HashMap<ThreadId, u64>,
    /// Thread → number of consecutive forced resumes (exponent of the
    /// pause-length backoff).
    backoff: HashMap<ThreadId, u32>,
    /// Threads that already served one pause for their current suspicion;
    /// cleared when the advisor stops flagging them.
    served: HashMap<ThreadId, bool>,
    stats: WatchdogStats,
}

impl<A: PauseAdvisor, S: Scheduler> AdversarialScheduler<A, S> {
    /// Wraps `inner`, pausing advisor-flagged threads for `pause_steps`.
    pub fn new(advisor: A, inner: S, pause_steps: u64) -> Self {
        Self {
            advisor,
            inner,
            pause_steps,
            deadline: pause_steps.saturating_mul(4).saturating_add(16),
            deadline_at: None,
            paused: HashMap::new(),
            backoff: HashMap::new(),
            served: HashMap::new(),
            stats: WatchdogStats::default(),
        }
    }

    /// Overrides the global pause-step deadline (default
    /// `4 × pause_steps + 16`).
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = deadline;
        self
    }

    /// Number of pauses issued so far.
    pub fn delays_issued(&self) -> u64 {
        self.stats.pauses_issued
    }

    /// Watchdog telemetry: pauses issued and forced resumes by reason.
    pub fn watchdog_stats(&self) -> WatchdogStats {
        self.stats
    }

    /// Consumes the scheduler, returning the advisor.
    pub fn into_advisor(self) -> A {
        self.advisor
    }

    /// Waives every outstanding pause, charging one backoff step to each
    /// force-resumed thread.
    fn force_resume_all(&mut self) {
        for &t in self.paused.keys() {
            *self.backoff.entry(t).or_insert(0) += 1;
        }
        self.paused.clear();
        self.deadline_at = None;
    }
}

impl<A: PauseAdvisor, S: Scheduler> Scheduler for AdversarialScheduler<A, S> {
    fn pick(&mut self, view: &SchedView<'_>) -> usize {
        // Flag newly suspicious threads.
        for (i, &t) in view.runnable.iter().enumerate() {
            if let Some(op) = view.next_ops[i] {
                if self.advisor.should_delay(t, op) {
                    if !self.paused.contains_key(&t)
                        && !self.served.get(&t).copied().unwrap_or(false)
                    {
                        // Exponential backoff: each forced resume this
                        // thread has suffered halves its pause length.
                        let steps = self.pause_steps >> self.backoff.get(&t).copied().unwrap_or(0);
                        self.paused.insert(t, view.step.saturating_add(steps));
                        self.served.insert(t, true);
                        self.stats.pauses_issued += 1;
                        if self.deadline_at.is_none() {
                            self.deadline_at = Some(view.step.saturating_add(self.deadline));
                        }
                    }
                } else {
                    self.served.remove(&t);
                }
            }
        }
        let now = view.step;
        // Global deadline: no pause episode may outlive it, no matter how
        // large `pause_steps` is.
        if self.deadline_at.is_some_and(|d| now >= d) && !self.paused.is_empty() {
            self.stats.forced_deadline += 1;
            self.force_resume_all();
        }
        // Drop expired pauses; a pause served to expiry clears the backoff.
        let expired: Vec<ThreadId> = self
            .paused
            .iter()
            .filter(|&(_, &until)| until <= now)
            .map(|(&t, _)| t)
            .collect();
        for t in expired {
            self.paused.remove(&t);
            self.backoff.remove(&t);
        }
        if self.paused.is_empty() {
            self.deadline_at = None;
        }

        let available: Vec<usize> = (0..view.runnable.len())
            .filter(|&i| !self.paused.contains_key(&view.runnable[i]))
            .collect();
        if available.is_empty() {
            // Everyone runnable is paused: waive (the paper's delay
            // timeout), counting why.
            if view.runnable.len() == 1 {
                self.stats.forced_sole_runnable += 1;
            } else {
                self.stats.forced_all_paused += 1;
            }
            self.force_resume_all();
            return self.inner.pick(view);
        }
        let filtered_ids: Vec<ThreadId> = available.iter().map(|&i| view.runnable[i]).collect();
        let filtered_ops: Vec<Option<Op>> = available.iter().map(|&i| view.next_ops[i]).collect();
        let sub = SchedView {
            runnable: &filtered_ids,
            next_ops: &filtered_ops,
            step: view.step,
        };
        let choice = self.inner.pick(&sub).min(available.len() - 1);
        available[choice]
    }

    fn observe(&mut self, index: usize, op: Op) {
        self.advisor.observe(index, op);
        self.inner.observe(index, op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velodrome_events::VarId;

    fn view<'a>(runnable: &'a [ThreadId], next_ops: &'a [Option<Op>], step: u64) -> SchedView<'a> {
        SchedView {
            runnable,
            next_ops,
            step,
        }
    }

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new();
        let ids = [t(0), t(1), t(2)];
        let ops = [None, None, None];
        assert_eq!(rr.pick(&view(&ids, &ops, 0)), 0);
        assert_eq!(rr.pick(&view(&ids, &ops, 1)), 1);
        assert_eq!(rr.pick(&view(&ids, &ops, 2)), 2);
        assert_eq!(rr.pick(&view(&ids, &ops, 3)), 0, "wraps around");
    }

    #[test]
    fn round_robin_skips_missing_threads() {
        let mut rr = RoundRobin::new();
        let ids = [t(0), t(2)];
        let ops = [None, None];
        assert_eq!(rr.pick(&view(&ids, &ops, 0)), 0);
        assert_eq!(rr.pick(&view(&ids, &ops, 1)), 1, "t1 not runnable; t2 next");
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed() {
        let ids = [t(0), t(1), t(2)];
        let ops = [None, None, None];
        let picks = |seed| {
            let mut s = RandomScheduler::new(seed);
            (0..20)
                .map(|i| s.pick(&view(&ids, &ops, i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8), "different seeds explore differently");
    }

    #[test]
    fn sticky_stays_on_current_thread() {
        let mut s = Sticky::new();
        let ids = [t(0), t(1)];
        let ops = [None, None];
        assert_eq!(s.pick(&view(&ids, &ops, 0)), 0);
        assert_eq!(s.pick(&view(&ids, &ops, 1)), 0);
        let only_t1 = [t(1)];
        assert_eq!(
            s.pick(&view(&only_t1, &[None], 2)),
            0,
            "switches when blocked"
        );
        assert_eq!(s.pick(&view(&ids, &ops, 3)), 1, "then sticks to t1");
    }

    #[test]
    fn pct_runs_highest_priority_and_demotes() {
        let ids = [t(0), t(1)];
        let ops = [None, None];
        // depth 1: no change points; the same thread always wins.
        let mut s = PctScheduler::new(3, 100, 1);
        let first = s.pick(&view(&ids, &ops, 0));
        for step in 1..10 {
            assert_eq!(s.pick(&view(&ids, &ops, step)), first);
        }
        // depth 2 with an early change point: the winner gets demoted and
        // the other thread takes over.
        let mut s = PctScheduler::new(3, 1, 2);
        let first = s.pick(&view(&ids, &ops, 5));
        let second = s.pick(&view(&ids, &ops, 6));
        assert_ne!(ids[first], ids[second], "demotion switches threads");
    }

    #[test]
    fn pct_is_deterministic_per_seed() {
        let ids = [t(0), t(1), t(2)];
        let ops = [None, None, None];
        let picks = |seed| {
            let mut s = PctScheduler::new(seed, 50, 3);
            (0..30)
                .map(|i| s.pick(&view(&ids, &ops, i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(11), picks(11));
    }

    struct DelayT0;
    impl PauseAdvisor for DelayT0 {
        fn observe(&mut self, _i: usize, _op: Op) {}
        fn should_delay(&mut self, t: ThreadId, _op: Op) -> bool {
            t == ThreadId::new(0)
        }
    }

    #[test]
    fn adversarial_pauses_flagged_thread() {
        let mut s = AdversarialScheduler::new(DelayT0, RoundRobin::new(), 10);
        let ids = [t(0), t(1)];
        let w = Op::Write {
            t: t(0),
            x: VarId::new(0),
        };
        let ops = [
            Some(w),
            Some(Op::Write {
                t: t(1),
                x: VarId::new(0),
            }),
        ];
        // While t0 is paused, t1 runs.
        for step in 0..5 {
            let i = s.pick(&view(&ids, &ops, step));
            assert_eq!(ids[i], t(1), "paused thread must not run");
        }
        assert_eq!(s.delays_issued(), 1, "one pause per suspicion");
        // After expiry, t0 may run again.
        let i = s.pick(&view(&ids, &ops, 50));
        let _ = i; // either is acceptable; the pause has expired
        assert!(!s.paused.contains_key(&t(0)) || s.paused[&t(0)] > 50);
    }

    #[test]
    fn adversarial_waives_when_all_paused() {
        let mut s = AdversarialScheduler::new(DelayT0, RoundRobin::new(), 1_000);
        let ids = [t(0)];
        let ops = [Some(Op::Write {
            t: t(0),
            x: VarId::new(0),
        })];
        // t0 is the only runnable thread: pause must be waived.
        let i = s.pick(&view(&ids, &ops, 0));
        assert_eq!(i, 0);
        assert_eq!(s.watchdog_stats().forced_sole_runnable, 1);
        assert_eq!(s.watchdog_stats().forced_total(), 1);
    }

    struct DelayAll;
    impl PauseAdvisor for DelayAll {
        fn observe(&mut self, _i: usize, _op: Op) {}
        fn should_delay(&mut self, _t: ThreadId, _op: Op) -> bool {
            true
        }
    }

    #[test]
    fn watchdog_counts_all_paused_waiver() {
        let mut s = AdversarialScheduler::new(DelayAll, RoundRobin::new(), 1_000);
        let ids = [t(0), t(1)];
        let w = |i| {
            Some(Op::Write {
                t: t(i),
                x: VarId::new(0),
            })
        };
        let ops = [w(0), w(1)];
        // Both threads get flagged and paused at once: the waiver must fire
        // and progress must continue.
        let i = s.pick(&view(&ids, &ops, 0));
        assert!(i < 2);
        let st = s.watchdog_stats();
        assert_eq!(st.pauses_issued, 2);
        assert_eq!(st.forced_all_paused, 1);
        assert_eq!(st.forced_sole_runnable, 0);
    }

    #[test]
    fn watchdog_deadline_force_resumes_paused_thread() {
        // Pathologically long pause, but a short global deadline: t0 must be
        // force-resumed once the deadline expires even though t1 could keep
        // the run "progressing" forever.
        let mut s =
            AdversarialScheduler::new(DelayT0, RoundRobin::new(), u64::MAX).with_deadline(5);
        let ids = [t(0), t(1)];
        let w = |i| {
            Some(Op::Write {
                t: t(i),
                x: VarId::new(0),
            })
        };
        let ops = [w(0), w(1)];
        for step in 0..5 {
            let i = s.pick(&view(&ids, &ops, step));
            assert_eq!(ids[i], t(1), "t0 paused until the deadline");
        }
        // Deadline reached (issued at step 0 ⇒ deadline_at = 5): t0 runs.
        let i = s.pick(&view(&ids, &ops, 5));
        assert_eq!(ids[i], t(0), "deadline forces t0 back in");
        let st = s.watchdog_stats();
        assert_eq!(st.forced_deadline, 1);
        assert_eq!(st.pauses_issued, 1);
    }

    #[test]
    fn watchdog_backoff_halves_repeat_pauses() {
        // pause_steps 8 with a sole runnable thread: every pick force-resumes
        // t0, and each forced resume halves the next pause. The scheduler
        // must keep making progress (picking t0) the whole time.
        let mut s = AdversarialScheduler::new(DelayT0, RoundRobin::new(), 8);
        let ids = [t(0)];
        let ops = [Some(Op::Write {
            t: t(0),
            x: VarId::new(0),
        })];
        for step in 0..6 {
            // Un-flagging between steps clears `served` so t0 is re-paused.
            s.served.clear();
            assert_eq!(s.pick(&view(&ids, &ops, step)), 0, "always progresses");
        }
        // Steps 0–3 pause for 8, 4, 2, 1 steps and are force-waived each
        // time (backoff 1..=4). At step 4 the effective pause is 8 >> 4 = 0:
        // it expires instantly — no forced resume needed, backoff resets —
        // and step 5 starts the cycle over with a forced full-length pause.
        let st = s.watchdog_stats();
        assert_eq!(st.pauses_issued, 6);
        assert_eq!(st.forced_sole_runnable, 5);
        assert_eq!(
            s.backoff.get(&t(0)).copied(),
            Some(1),
            "reset then re-armed"
        );
    }
}
