//! The Section 6 defect-injection study: systematically remove each
//! contended `synchronized` statement and measure how often a single
//! Velodrome run detects the resulting atomicity defect, with and without
//! Atomizer-guided adversarial scheduling.

use crate::{report, run_backend};
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use velodrome_cli::backend::Settings;
use velodrome_events::Trace;
use velodrome_sim::ir::Stmt;
use velodrome_sim::{mutate, run_program, Program};
use velodrome_workloads::adversarial::adversarial_scheduler;
use velodrome_workloads::Workload;

/// Results of the injection study on one workload.
#[derive(Debug, Serialize)]
pub struct InjectionResult {
    /// Benchmark name.
    pub name: String,
    /// Contended sync sites mutated.
    pub sites: usize,
    /// Mutant runs (sites × seeds) per configuration.
    pub runs: usize,
    /// Detections in single runs under plain random scheduling.
    pub plain_hits: usize,
    /// Detections in single runs under adversarial scheduling.
    pub adversarial_hits: usize,
}

impl InjectionResult {
    /// Plain detection rate in `[0, 1]`.
    pub fn plain_rate(&self) -> f64 {
        self.plain_hits as f64 / self.runs.max(1) as f64
    }

    /// Adversarial detection rate in `[0, 1]`.
    pub fn adversarial_rate(&self) -> f64 {
        self.adversarial_hits as f64 / self.runs.max(1) as f64
    }
}

/// Collects, per variable, the set of threads that access it (setup and
/// teardown count as the main thread).
fn var_threads(program: &Program) -> HashMap<u32, HashSet<usize>> {
    fn visit(stmts: &[Stmt], thread: usize, out: &mut HashMap<u32, HashSet<usize>>) {
        for s in stmts {
            match s {
                Stmt::Read(x) | Stmt::Write(x) => {
                    out.entry(x.raw()).or_default().insert(thread);
                }
                Stmt::Sync(_, body) | Stmt::Atomic(_, body) | Stmt::Loop(_, body) => {
                    visit(body, thread, out)
                }
                Stmt::Compute(_) => {}
            }
        }
    }
    let mut out = HashMap::new();
    visit(&program.setup, 0, &mut out);
    for (i, t) in program.workers().enumerate() {
        visit(&t.stmts, i + 1, &mut out);
    }
    visit(&program.teardown, 0, &mut out);
    out
}

/// Does the `site`-th sync statement protect any variable accessed by more
/// than one thread? (The paper mutates only "synchronized statements that
/// induced contention between threads".)
fn site_is_contended(program: &Program, site: usize) -> bool {
    // Find the site's body variables by diffing against the mutant.
    let Some(mutant) = mutate::elide_sync(program, site) else {
        return false;
    };
    let threads = var_threads(program);
    // Collect vars under the site by walking both programs in parallel is
    // complex; instead, over-approximate: collect the vars of the site body
    // via a dedicated traversal.
    let vars = site_vars(program, site);
    let _ = mutant;
    vars.iter()
        .any(|v| threads.get(v).is_some_and(|t| t.len() > 1))
}

/// The variables accessed (at any depth) inside the `site`-th sync body.
fn site_vars(program: &Program, site: usize) -> HashSet<u32> {
    fn collect_vars(stmts: &[Stmt], out: &mut HashSet<u32>) {
        for s in stmts {
            match s {
                Stmt::Read(x) | Stmt::Write(x) => {
                    out.insert(x.raw());
                }
                Stmt::Sync(_, body) | Stmt::Atomic(_, body) | Stmt::Loop(_, body) => {
                    collect_vars(body, out)
                }
                Stmt::Compute(_) => {}
            }
        }
    }
    fn visit(stmts: &[Stmt], counter: &mut usize, site: usize, out: &mut HashSet<u32>) {
        for s in stmts {
            match s {
                Stmt::Sync(_, body) => {
                    if *counter == site {
                        collect_vars(body, out);
                    }
                    *counter += 1;
                    visit(body, counter, site, out);
                }
                Stmt::Atomic(_, body) | Stmt::Loop(_, body) => visit(body, counter, site, out),
                _ => {}
            }
        }
    }
    let mut out = HashSet::new();
    let mut counter = 0;
    visit(&program.setup, &mut counter, site, &mut out);
    for t in program.workers() {
        visit(&t.stmts, &mut counter, site, &mut out);
    }
    visit(&program.teardown, &mut counter, site, &mut out);
    out
}

/// The label of the innermost atomic block enclosing the `site`-th sync
/// statement, if any (site numbering as in [`mutate::sync_sites`]).
fn site_enclosing_label(program: &Program, site: usize) -> Option<velodrome_events::Label> {
    fn visit(
        stmts: &[Stmt],
        counter: &mut usize,
        site: usize,
        enclosing: Option<velodrome_events::Label>,
    ) -> Option<Option<velodrome_events::Label>> {
        for s in stmts {
            match s {
                Stmt::Sync(_, body) => {
                    if *counter == site {
                        return Some(enclosing);
                    }
                    *counter += 1;
                    if let Some(found) = visit(body, counter, site, enclosing) {
                        return Some(found);
                    }
                }
                Stmt::Atomic(l, body) => {
                    if let Some(found) = visit(body, counter, site, Some(*l)) {
                        return Some(found);
                    }
                }
                Stmt::Loop(_, body) => {
                    if let Some(found) = visit(body, counter, site, enclosing) {
                        return Some(found);
                    }
                }
                _ => {}
            }
        }
        None
    }
    let mut counter = 0;
    if let Some(found) = visit(&program.setup, &mut counter, site, None) {
        return found;
    }
    for t in program.workers() {
        if let Some(found) = visit(&t.stmts, &mut counter, site, None) {
            return found;
        }
    }
    visit(&program.teardown, &mut counter, site, None).flatten()
}

/// A site is eligible for the injection study when it is contended *and*
/// sits inside an atomic method that is currently correct — eliding it
/// injects a fresh atomicity defect, as in the paper's methodology.
fn site_is_eligible(workload: &Workload, site: usize) -> bool {
    if !site_is_contended(&workload.program, site) {
        return false;
    }
    match site_enclosing_label(&workload.program, site) {
        Some(l) => {
            let name = workload.program.names.label(l);
            !workload.is_non_atomic(&name)
        }
        None => false, // outside atomic blocks: a race, not an atomicity defect
    }
}

fn velodrome_labels(trace: &Trace) -> HashSet<String> {
    run_backend("velodrome", trace, &Settings::default())
        .warnings
        .into_iter()
        .filter_map(|w| w.label.map(|l| trace.names().label(l)))
        .collect()
}

/// A scheduler factory: one fresh scheduler per seeded run.
pub type SchedulerFactory<'a> = &'a dyn Fn(u64) -> Box<dyn velodrome_sim::Scheduler>;

/// The baseline label set: every method Velodrome reports on the
/// *unmutated* program across all seeds under the given schedulers.
pub fn baseline_labels(
    workload: &Workload,
    seeds: u64,
    factories: &[SchedulerFactory<'_>],
) -> HashSet<String> {
    let mut baseline = HashSet::new();
    for seed in 0..seeds {
        for make in factories {
            let result = run_program(&workload.program, make(seed));
            if !result.deadlocked {
                baseline.extend(velodrome_labels(&result.trace));
            }
        }
    }
    baseline
}

/// The eligible (contended, currently-correct) sync sites of a workload.
pub fn eligible_sites(workload: &Workload) -> Vec<usize> {
    (0..mutate::sync_sites(&workload.program))
        .filter(|&s| site_is_eligible(workload, s))
        .collect()
}

/// Single-run detection rate of injected defects under a scheduler family:
/// for every eligible site, elide it and run once per seed; a run detects
/// the defect when Velodrome reports a method outside `baseline`.
/// Returns `(hits, runs)`.
pub fn detection_rate(
    workload: &Workload,
    seeds: u64,
    baseline: &HashSet<String>,
    make: SchedulerFactory<'_>,
) -> (usize, usize) {
    let mut hits = 0;
    let mut runs = 0;
    for site in eligible_sites(workload) {
        let mutant = mutate::elide_sync(&workload.program, site).expect("site in range");
        for seed in 0..seeds {
            runs += 1;
            let result = run_program(&mutant, make(seed));
            if !result.deadlocked
                && velodrome_labels(&result.trace)
                    .difference(baseline)
                    .next()
                    .is_some()
            {
                hits += 1;
            }
        }
    }
    (hits, runs)
}

/// Runs the injection study on one workload: every contended sync site is
/// elided in turn; each mutant runs once per seed under plain random and
/// under adversarial scheduling. A run *detects* the defect when Velodrome
/// reports a method that no baseline (unmutated) run ever reported.
pub fn measure(workload: &Workload, seeds: u64, pause_steps: u64) -> InjectionResult {
    let plain: SchedulerFactory<'_> = &|seed| Box::new(velodrome_sim::RandomScheduler::new(seed));
    let adv: SchedulerFactory<'_> = &move |seed| Box::new(adversarial_scheduler(seed, pause_steps));
    let baseline = baseline_labels(workload, seeds, &[plain, adv]);
    let (plain_hits, runs) = detection_rate(workload, seeds, &baseline, plain);
    let (adversarial_hits, _) = detection_rate(workload, seeds, &baseline, adv);
    InjectionResult {
        name: workload.name.to_string(),
        sites: eligible_sites(workload).len(),
        runs,
        plain_hits,
        adversarial_hits,
    }
}

/// Runs the study on the paper's two subjects (elevator and colt).
pub fn run_injection(scale: u32, seeds: u64, pause_steps: u64) -> Vec<InjectionResult> {
    ["elevator", "colt"]
        .iter()
        .map(|name| {
            let w = velodrome_workloads::build(name, scale).expect("known workload");
            measure(&w, seeds, pause_steps)
        })
        .collect()
}

/// Renders the study results.
pub fn render(results: &[InjectionResult]) -> String {
    let header = [
        "program",
        "contended sites",
        "runs",
        "plain rate",
        "adversarial rate",
    ];
    let body: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.sites.to_string(),
                r.runs.to_string(),
                format!("{:.0}%", 100.0 * r.plain_rate()),
                format!("{:.0}%", 100.0 * r.adversarial_rate()),
            ]
        })
        .collect();
    report::table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_analysis_finds_shared_sites() {
        let w = velodrome_workloads::build("multiset", 1).unwrap();
        let total = mutate::sync_sites(&w.program);
        let contended = (0..total)
            .filter(|&s| site_is_contended(&w.program, s))
            .count();
        assert!(contended > 0);
        assert!(contended <= total);
    }

    #[test]
    fn site_vars_sees_through_nesting() {
        use velodrome_sim::{ProgramBuilder, Stmt};
        let mut b = ProgramBuilder::new();
        let x = b.var("x");
        let m = b.lock("m");
        b.worker(vec![Stmt::Sync(
            m,
            vec![Stmt::Loop(2, vec![Stmt::Write(x)])],
        )]);
        let p = b.finish();
        let vars = site_vars(&p, 0);
        assert!(vars.contains(&x.raw()));
    }

    #[test]
    fn eligible_sites_exclude_already_broken_methods() {
        let w = velodrome_workloads::build("elevator", 1).unwrap();
        let total = mutate::sync_sites(&w.program);
        for site in 0..total {
            if site_is_eligible(&w, site) {
                let l = site_enclosing_label(&w.program, site).unwrap();
                let name = w.program.names.label(l);
                assert!(!w.is_non_atomic(&name), "{name} is already non-atomic");
            }
        }
        assert!(
            (0..total).any(|s| site_is_eligible(&w, s)),
            "some sites eligible"
        );
    }

    #[test]
    fn adversarial_scheduling_improves_detection_on_elevator() {
        let w = velodrome_workloads::build("elevator", 1).unwrap();
        let result = measure(&w, 3, 40);
        assert!(result.sites > 0, "elevator has contended sync sites");
        assert!(
            result.adversarial_hits >= result.plain_hits,
            "adversarial {} vs plain {}",
            result.adversarial_hits,
            result.plain_hits
        );
    }
}
