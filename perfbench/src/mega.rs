//! `megascale`: the active-set fast path at a million sites — one uniform
//! epidemic and one on a Barabási–Albert graph per trial (push, feedback,
//! coin k = 4).
//!
//! The traced replay runs `FastRumorProtocol` on `ActiveCycleEngine`
//! itself, through a wrapper that reads the clock once per engine phase
//! per cycle — never per contact, which would cost more than the contacts.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use epidemic_analysis::RumorOde;
use epidemic_db::Backend;
use epidemic_net::DegreeGraph;
use epidemic_sim::bitset::BitSet;
use epidemic_sim::engine::{ActiveCycleEngine, ActiveSetProtocol, ContactStats};
use epidemic_sim::megascale::{reference, FastRumorProtocol};
use epidemic_sim::{EpidemicResult, MegascaleSim};
use rand::rngs::ContactRng;

use crate::measure::{self, median_setup, trial_seed, Budget, Checks, Metric};
use crate::probe::allocations;
use crate::tally::Tally;

/// Sites per epidemic.
const N: usize = 1_000_000;
/// Barabási–Albert attachment count.
const M: usize = 2;
/// The coin loss rate `MegascaleSim` runs.
const K: u32 = 4;
/// Sites in the per-run check against `megascale::reference`.
const REFERENCE_N: usize = 2_000;
/// Cycle bound, as `MegascaleSim` sets it.
const MAX_CYCLES: u32 = 100_000;
/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 5;
/// Allowed distance of the uniform residue from the rumor ODE, in
/// binomial standard deviations.
const RESIDUE_SIGMAS: f64 = 5.0;

/// One trial: the uniform and the scale-free epidemic.
pub type Output = [EpidemicResult; 2];

fn graph_seed(seed: u64) -> u64 {
    trial_seed(seed, u64::MAX)
}

fn contacts(out: &Output) -> u64 {
    // Every fast-path contact sends exactly one update, and traffic is
    // sent / n.
    out.iter()
        .map(|r| (r.traffic * r.n as f64).round() as u64)
        .sum()
}

/// Whether the uniform residue lies within 5σ of the ODE's final residue.
fn residue_ok(r: &EpidemicResult, s: f64) -> bool {
    let sigma = (s * (1.0 - s) / r.n as f64).sqrt();
    (r.residue - s).abs() <= RESIDUE_SIGMAS * sigma
}

fn trial(graph: &DegreeGraph, seed: u64, workers: usize) -> Output {
    let sim = MegascaleSim::new().workers(workers);
    [
        sim.run_uniform_fast(N, seed),
        sim.run_scale_free_fast(graph, seed),
    ]
}

/// Runs the workload; see [`crate::run`].
pub fn run(
    seed: u64,
    budget: Budget,
    trace: bool,
    checks: &mut Checks,
    report: &mut Vec<String>,
) -> Vec<Metric> {
    let ode = RumorOde::new(K).final_residue();
    let check = |out: &Output| residue_ok(&out[0], ode) && out.iter().all(|r| r.cycles > 0);
    reference_checks(seed, checks);
    report.push(format!(
        "megascale: n={N}, BA m={M}, push feedback coin k={K}; ODE residue {ode:.6}"
    ));

    if !trace {
        let (setup_s, graph) = median_setup(SETUP_REPS, || {
            DegreeGraph::scale_free(N, M, graph_seed(seed))
        });
        let one = |k: u64| trial(&graph, trial_seed(seed, k), 1);
        let two = |first: u64, count: u64| {
            (first..first + count)
                .map(|k| trial(&graph, trial_seed(seed, k), 2))
                .collect()
        };
        let w = measure::Untraced {
            setup_s,
            round: 1,
            batch_2t: 1,
            alloc_trials: 2,
            trial: &one,
            trials_2t: &two,
            contacts,
            check: &check,
        };
        return measure::untraced(budget, &w, checks, report);
    }

    let mut tally = Tally::default();
    let a0 = allocations();
    let t0 = Instant::now();
    let graph = DegreeGraph::scale_free(N, M, graph_seed(seed));
    tally.once("net.graph_build_s", t0.elapsed().as_secs_f64());
    tally.once("net.graph_build_allocs", (allocations() - a0) as f64);
    let one = |k: u64| trial(&graph, trial_seed(seed, k), 1);
    let mut traced = |k: u64, tally: &mut Tally| -> Output {
        let s = trial_seed(seed, k);
        [
            replay(FastRumorProtocol::uniform(N, K), s, tally),
            replay(FastRumorProtocol::scale_free(&graph, K), s, tally),
        ]
    };
    let mut w = measure::Traced {
        round: 1,
        trial: &one,
        traced: &mut traced,
        check: &check,
        runner_batch: 0,
    };
    measure::traced(budget, &mut w, &mut tally, checks, report)
}

/// The fast path must equal the naive reference loop exactly, on both
/// topologies, at a size the reference can afford.
fn reference_checks(seed: u64, checks: &mut Checks) {
    let s = trial_seed(seed, u64::MAX - 1);
    let sim = MegascaleSim::new().workers(1);
    let uniform = reference::run_uniform(REFERENCE_N, K, s, Backend::Flat).result;
    checks.record(sim.run_uniform_fast(REFERENCE_N, s) == uniform, || {
        format!("uniform fast path differs from megascale::reference at n={REFERENCE_N}")
    });
    let graph = DegreeGraph::scale_free(REFERENCE_N, M, s);
    let scale_free = reference::run_scale_free(&graph, K, s, Backend::Flat).result;
    checks.record(sim.run_scale_free_fast(&graph, s) == scale_free, || {
        format!("scale-free fast path differs from megascale::reference at n={REFERENCE_N}")
    });
}

/// Runs one epidemic through [`Phased`] and tallies its phases.
fn replay(protocol: FastRumorProtocol<'_>, seed: u64, tally: &mut Tally) -> EpidemicResult {
    let mut phased = Phased::new(protocol);
    let t0 = Instant::now();
    let report = ActiveCycleEngine::new()
        .workers(1)
        .max_cycles(MAX_CYCLES)
        .run(&mut phased, seed, &mut ());
    phased.close_roster();
    let run_s = t0.elapsed().as_secs_f64();
    let p = &phased;
    let phases_s = (p.roster.nanos + p.draw.nanos + p.apply.nanos) as f64 * 1e-9;
    tally.add("engine_run_s", run_s);
    tally.add("sim.engine_self_s", run_s - phases_s);
    for (s, allocs, phase) in [
        ("sim.active_roster_s", "sim.active_roster_allocs", &p.roster),
        ("sim.active_draw_s", "sim.active_draw_allocs", &p.draw),
        ("sim.active_apply_s", "sim.active_apply_allocs", &p.apply),
    ] {
        tally.add(s, phase.nanos as f64 * 1e-9);
        tally.add(allocs, phase.allocs as f64);
    }
    let totals = report.totals;
    tally.add("sim.contacts", totals.contacts as f64);
    tally.add("sim.cycles", f64::from(report.cycles));
    tally.ratio(
        "sim.fruitless_ratio",
        totals.fruitless as f64,
        totals.contacts as f64,
    );
    tally.ratio(
        "sim.active_sites_per_cycle",
        totals.contacts as f64,
        f64::from(report.cycles),
    );
    tally.ratio("db.lazy_rows", p.inner.table().len() as f64, 1.0);
    p.inner.result(&report)
}

/// Nanoseconds and allocations spent in one engine phase.
#[derive(Debug, Default)]
struct Phase {
    nanos: u64,
    allocs: u64,
}

impl Phase {
    fn add(&mut self, from: (Instant, u64), to: (Instant, u64)) {
        let nanos = u64::try_from((to.0 - from.0).as_nanos()).unwrap_or(u64::MAX);
        self.nanos = self.nanos.saturating_add(nanos);
        self.allocs += to.1 - from.1;
    }
}

fn mark() -> (Instant, u64) {
    (Instant::now(), allocations())
}

/// An [`ActiveSetProtocol`] wrapper that splits each engine cycle at its
/// phase boundaries: `begin_cycle` opens the roster phase, the cycle's
/// first `contact` opens the draw phase, its first `apply` opens the
/// apply phase, and the next `begin_cycle` closes it.
struct Phased<P> {
    inner: P,
    base: Instant,
    /// Set by the cycle's first draw; draws may run on worker threads.
    drawing: AtomicBool,
    draw_start_ns: AtomicU64,
    draw_start_allocs: AtomicU64,
    applying: bool,
    roster_start: Option<(Instant, u64)>,
    apply_start: (Instant, u64),
    roster: Phase,
    draw: Phase,
    apply: Phase,
}

impl<P> Phased<P> {
    fn new(inner: P) -> Self {
        let now = mark();
        Phased {
            inner,
            base: now.0,
            drawing: AtomicBool::new(false),
            draw_start_ns: AtomicU64::new(0),
            draw_start_allocs: AtomicU64::new(0),
            applying: false,
            roster_start: None,
            apply_start: now,
            roster: Phase::default(),
            draw: Phase::default(),
            apply: Phase::default(),
        }
    }

    fn draw_start(&self) -> (Instant, u64) {
        let ns = self.draw_start_ns.load(Ordering::Acquire);
        (
            self.base + std::time::Duration::from_nanos(ns),
            self.draw_start_allocs.load(Ordering::Acquire),
        )
    }

    /// Ends the roster phase of the final, empty cycle.
    fn close_roster(&mut self) {
        if let Some(start) = self.roster_start.take() {
            self.roster.add(start, mark());
        }
    }
}

impl<P: ActiveSetProtocol> ActiveSetProtocol for Phased<P> {
    type Draw = P::Draw;

    fn site_count(&self) -> usize {
        self.inner.site_count()
    }

    fn begin_cycle(&mut self, cycle: u32) {
        let now = mark();
        if self.applying {
            self.apply.add(self.apply_start, now);
            self.applying = false;
        }
        self.drawing.store(false, Ordering::Release);
        self.roster_start = Some(now);
        self.inner.begin_cycle(cycle);
    }

    fn active(&self) -> &BitSet {
        self.inner.active()
    }

    fn contact(&self, cycle: u32, i: usize, rng: &mut ContactRng) -> Self::Draw {
        if !self.drawing.load(Ordering::Relaxed) && !self.drawing.swap(true, Ordering::AcqRel) {
            let (at, allocs) = mark();
            let ns = u64::try_from((at - self.base).as_nanos()).unwrap_or(u64::MAX);
            self.draw_start_allocs.store(allocs, Ordering::Release);
            self.draw_start_ns.store(ns, Ordering::Release);
        }
        self.inner.contact(cycle, i, rng)
    }

    fn apply(&mut self, cycle: u32, i: usize, draw: &Self::Draw) -> (usize, ContactStats) {
        if !self.applying {
            let now = mark();
            let draw_start = self.draw_start();
            if let Some(start) = self.roster_start.take() {
                self.roster.add(start, draw_start);
            }
            self.draw.add(draw_start, now);
            self.apply_start = now;
            self.applying = true;
        }
        self.inner.apply(cycle, i, draw)
    }
}
