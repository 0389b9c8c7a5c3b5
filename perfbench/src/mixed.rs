//! `mixed-ops`: a generated `.scenario` run through `ScenarioEngine` with
//! an `AggregateObserver` attached — full-compare anti-entropy every 4
//! cycles, push-pull rumors in between, and an update/delete/read client
//! mix, until the fleet converges.
//!
//! Each run generates a pool of five scenarios from its seed, of about
//! 100, 125, 150, 175 and 200 sites, and walks the pool round-robin, so
//! every run weighs the same size mix equally. The traced replay calls
//! `ScenarioEngine::run_with_policy` with timing wrappers around the
//! partner policy and the observer.

use std::time::Instant;

use epidemic_sim::engine::{AggregateObserver, UniformPartners};
use epidemic_sim::runner::TrialRunner;
use epidemic_sim::{Scenario, ScenarioEngine, ScenarioReport};
use epidemic_trace::RunAggregate;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::measure::{self, median_setup, trial_seed, Budget, Checks, Metric};
use crate::probe::allocations;
use crate::seams::{ContactSpans, TimedObserver, TimedPolicy};
use crate::tally::Tally;

/// Scenarios per run. An odd count puts the median trial inside the
/// middle scenario's cluster of trial times rather than in the gap
/// between two clusters.
pub const POOL: u64 = 5;
/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 21;
/// Pools built per set-up repetition: one pool takes microseconds, too
/// short to time alone.
const SETUP_BATCH: u32 = 50;
/// Partner draws, contacts and observer hooks cost about as much as a
/// clock read: time one in 8.
const SAMPLE_PERIOD: u64 = 8;

/// One trial: the report and the observer's aggregate.
pub type Output = (ScenarioReport, RunAggregate);

/// The scenario text for pool slot `slot` of a run; a pure function of
/// the run seed.
pub fn scenario_text(seed: u64, slot: u64) -> String {
    let mut rng = StdRng::seed_from_u64(trial_seed(seed, u64::MAX - 2 - slot));
    // Only ±2 sites of jitter, so that a run's cost hardly depends on
    // its seed.
    let sites = 98 + 25 * slot + rng.random_range(0..5u64);
    format!(
        "scenario mixed-ops-{slot}\n\
         sites {sites}\n\
         topology uniform\n\
         anti-entropy every 4 from 0 redistribute none\n\
         rumor push-pull feedback counter 2\n\
         workload rate 2 budget 60 retention 2\n\
         mix update 4 delete 1 read 5\n\
         until converged\n\
         max-cycles 5000\n"
    )
}

fn engines(seed: u64) -> Vec<ScenarioEngine> {
    (0..POOL)
        .map(|slot| {
            let spec =
                Scenario::parse(&scenario_text(seed, slot)).expect("generated scenarios parse");
            ScenarioEngine::new(spec).expect("generated scenarios validate")
        })
        .collect()
}

fn contacts(out: &Output) -> u64 {
    out.0.totals.contacts
}

/// Each trial must converge with residue 0. An uncancelled delete is
/// recorded as `db.uncancelled_share`, not as a failure.
fn check(out: &Output) -> bool {
    out.0.converged_at.is_some() && out.0.residue == 0.0
}

/// Runs the workload; see [`crate::run`].
pub fn run(
    seed: u64,
    budget: Budget,
    trace: bool,
    checks: &mut Checks,
    report: &mut Vec<String>,
) -> Vec<Metric> {
    let (batch_s, engines) = median_setup(SETUP_REPS, || {
        for _ in 1..SETUP_BATCH {
            std::hint::black_box(engines(seed));
        }
        engines(seed)
    });
    let setup_s = batch_s / f64::from(SETUP_BATCH);
    let engine = |k: u64| &engines[(k % POOL) as usize];
    let trial = |k: u64| -> Output {
        let mut observer = AggregateObserver::new();
        let report = engine(k).run_observed(trial_seed(seed, k), &mut observer);
        (report, observer.finish())
    };
    report.push(format!(
        "mixed-ops: site counts {:?}",
        engines.iter().map(|e| e.spec().sites).collect::<Vec<_>>()
    ));

    if !trace {
        let trials_2t =
            |first: u64, count: u64| TrialRunner::new().threads(2).run(count, first, trial);
        let w = measure::Untraced {
            setup_s,
            round: POOL,
            batch_2t: 2 * POOL,
            alloc_trials: 10 * POOL,
            trial: &trial,
            trials_2t: &trials_2t,
            contacts,
            check: &check,
        };
        return measure::untraced(budget, &w, checks, report);
    }

    let mut tally = Tally::default();
    let mut traced = |k: u64, tally: &mut Tally| -> Output {
        let engine = engine(k);
        let spans = ContactSpans::sampled(SAMPLE_PERIOD);
        let policy = UniformPartners::new(engine.spec().sites);
        let timed = TimedPolicy {
            inner: &policy,
            spans: &spans,
        };
        let mut observer = TimedObserver {
            inner: AggregateObserver::new(),
            spans: &spans,
        };
        let mut rng = StdRng::seed_from_u64(trial_seed(seed, k));
        let a0 = allocations();
        let t0 = Instant::now();
        let report = engine.run_with_policy(&mut rng, &timed, None, &mut observer);
        let run_s = t0.elapsed().as_secs_f64();
        let run_allocs = allocations() - a0;
        let children = [
            &spans.draw,
            &spans.contact,
            &spans.observer,
            &spans.observer_cycle,
        ];
        let child_s: f64 = children.iter().map(|s| s.seconds()).sum();
        let child_allocs: u64 = children.iter().map(|s| s.allocs()).sum();
        tally.add("engine_run_s", run_s);
        tally.add("sim.engine_self_s", run_s - child_s);
        tally.add("sim.engine_self_allocs", (run_allocs - child_allocs) as f64);
        tally.span("sim.partner_draw", &spans.draw);
        tally.add("sim.partner_draws", spans.draw.calls() as f64);
        tally.span("core.exchange", &spans.contact);
        tally.add("core.exchanges", spans.contact.calls() as f64);
        tally.span("trace.observer", &spans.observer);
        tally.span("trace.observer", &spans.observer_cycle);
        let totals = report.totals;
        tally.add("sim.contacts", totals.contacts as f64);
        tally.add("sim.cycles", f64::from(report.cycles));
        tally.ratio(
            "sim.fruitless_ratio",
            totals.fruitless as f64,
            totals.contacts as f64,
        );
        tally.add("core.entries_sent", totals.sent as f64);
        tally.add("core.ae_sent", report.ae_sent as f64);
        tally.add("core.rumor_sent", report.rumor_sent as f64);
        tally.add("db.writes", report.updates as f64);
        tally.add("db.deletes", report.deletes as f64);
        tally.add("db.reads", report.reads as f64);
        tally.ratio(
            "db.read_miss_ratio",
            report.read_misses as f64,
            report.reads as f64,
        );
        tally.ratio("db.uncancelled_share", f64::from(!report.cancelled), 1.0);
        (report, observer.inner.finish())
    };
    let mut w = measure::Traced {
        round: POOL,
        trial: &trial,
        traced: &mut traced,
        check: &check,
        runner_batch: 2 * POOL,
    };
    measure::traced(budget, &mut w, &mut tally, checks, report)
}
