//! `steady-cin`: the paper's production Clearinghouse configuration —
//! push-pull recent-list anti-entropy under continuous updates on the
//! default CIN — once per spatial distribution.
//!
//! The traced replay rebuilds `SpatialSteadySim::run` from the public
//! parts it is made of (`CycleEngine`, `SpatialPartners`,
//! `AntiEntropy::exchange_with`, `RouteRecorder`, `UpdateInjector`,
//! `Replica`), timing each call into them, and must reproduce its report
//! exactly.

use std::time::Instant;

use epidemic_core::{AntiEntropy, Comparison, Direction, ExchangeScratch, Replica};
use epidemic_db::SiteId;
use epidemic_net::topologies::{cin, CinConfig};
use epidemic_net::{LinkTraffic, PartnerSampler, Routes, Spatial};
use epidemic_sim::engine::{
    ContactStats, CycleEngine, EpidemicProtocol, RouteRecorder, SpatialPartners, UpdateInjector,
};
use epidemic_sim::runner::TrialRunner;
use epidemic_sim::spatial_steady::{SpatialSteadyConfig, SpatialSteadyReport, SpatialSteadySim};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{self, median_setup, trial_seed, Budget, Checks, Metric};
use crate::probe::{allocations, Span};
use crate::seams::{ContactSpans, TimedPolicy};
use crate::tally::Tally;

/// The three spatial distributions one trial runs, each on the same seed.
const DISTRIBUTIONS: [Spatial; 3] = [
    Spatial::Uniform,
    Spatial::QsPower { a: 1.2 },
    Spatial::QsPower { a: 2.0 },
];

/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 7;

/// Spelled out rather than taken from `Default`, so a change of defaults
/// cannot silently change the benchmark.
const CONFIG: SpatialSteadyConfig = SpatialSteadyConfig {
    updates_per_cycle: 2.0,
    comparison: Comparison::RecentList { tau: 400 },
    warmup: 20,
    cycles: 60,
};

/// A `SpatialSteadyReport`, comparable bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    conversations_per_link_cycle: u64,
    entries_per_link_cycle: u64,
    full_compare_rate: u64,
    entry_traffic: LinkTraffic,
    measured_cycles: u32,
    exchanges: u64,
}

impl From<SpatialSteadyReport> for Report {
    fn from(r: SpatialSteadyReport) -> Self {
        Report {
            conversations_per_link_cycle: r.conversations_per_link_cycle.to_bits(),
            entries_per_link_cycle: r.entries_per_link_cycle.to_bits(),
            full_compare_rate: r.full_compare_rate.to_bits(),
            entry_traffic: r.entry_traffic,
            measured_cycles: r.measured_cycles,
            exchanges: r.exchanges,
        }
    }
}

/// One trial: a report per distribution.
pub type Output = Vec<Report>;

fn sims(topology: &epidemic_net::Topology) -> Vec<SpatialSteadySim<'_>> {
    DISTRIBUTIONS
        .iter()
        .map(|&spatial| SpatialSteadySim::new(topology, spatial, CONFIG))
        .collect()
}

fn contacts(out: &Output) -> u64 {
    let total = u64::from(CONFIG.warmup + CONFIG.cycles);
    out.iter()
        .map(|r| r.exchanges * total / u64::from(CONFIG.cycles))
        .sum()
}

fn check(sites: usize, out: &Output) -> bool {
    out.len() == DISTRIBUTIONS.len()
        && out.iter().all(|r| {
            let rate = f64::from_bits(r.full_compare_rate);
            let entries = f64::from_bits(r.entries_per_link_cycle);
            r.measured_cycles == CONFIG.cycles
                && r.exchanges == sites as u64 * u64::from(CONFIG.cycles)
                && (0.0..=1.0).contains(&rate)
                && entries.is_finite()
                && entries > 0.0
        })
}

/// Runs the workload; see [`crate::run`].
pub fn run(
    seed: u64,
    budget: Budget,
    trace: bool,
    checks: &mut Checks,
    report: &mut Vec<String>,
) -> Vec<Metric> {
    let (setup_s, ()) = median_setup(SETUP_REPS, || {
        let net = cin(&CinConfig::default());
        std::hint::black_box(sims(&net.topology));
    });
    let net = cin(&CinConfig::default());
    let sims = sims(&net.topology);
    let sites = net.topology.sites().len();
    let trial = |k: u64| -> Output {
        let s = trial_seed(seed, k);
        sims.iter().map(|sim| Report::from(sim.run(s))).collect()
    };
    let check = |out: &Output| check(sites, out);
    report.push(format!(
        "steady-cin: {sites} sites, {} distributions, {}+{} cycles",
        DISTRIBUTIONS.len(),
        CONFIG.warmup,
        CONFIG.cycles
    ));

    if !trace {
        let trials_2t =
            |first: u64, count: u64| TrialRunner::new().threads(2).run(count, first, trial);
        let w = measure::Untraced {
            setup_s,
            round: 1,
            batch_2t: 4,
            alloc_trials: 2,
            trial: &trial,
            trials_2t: &trials_2t,
            contacts,
            check: &check,
        };
        return measure::untraced(budget, &w, checks, report);
    }

    let mut tally = Tally::default();
    let a0 = allocations();
    let t0 = Instant::now();
    let net2 = cin(&CinConfig::default());
    let routes = Routes::compute(&net2.topology);
    let samplers: Vec<PartnerSampler> = DISTRIBUTIONS
        .iter()
        .map(|&spatial| PartnerSampler::new(&net2.topology, &routes, spatial))
        .collect();
    tally.once("net.setup_s", t0.elapsed().as_secs_f64());
    tally.once("net.setup_allocs", (allocations() - a0) as f64);
    let mut traced = |k: u64, tally: &mut Tally| -> Output {
        let s = trial_seed(seed, k);
        samplers
            .iter()
            .map(|sampler| replay(&net2.topology, &routes, sampler, s, tally))
            .collect()
    };
    let mut w = measure::Traced {
        round: 1,
        trial: &trial,
        traced: &mut traced,
        check: &check,
        runner_batch: 4,
    };
    measure::traced(budget, &mut w, &mut tally, checks, report)
}

/// The spans one replayed run fills.
struct Spans {
    seams: ContactSpans,
    exchange: Span,
    record: Span,
    write: Span,
}

/// `SpatialSteadyProtocol`, rebuilt with a span around each call into
/// `core`, `db` and `net`.
struct Replay<'a> {
    exchange: AntiEntropy,
    sites: &'a [SiteId],
    replicas: Vec<Replica<u32, u64>>,
    injector: UpdateInjector,
    exchanges: u64,
    full_compares: u64,
    recorder: RouteRecorder<'a>,
    scratch: ExchangeScratch<u32, u64>,
    spans: &'a Spans,
    writes: u64,
    all_full_compares: u64,
    sent: u64,
}

impl EpidemicProtocol for Replay<'_> {
    fn site_count(&self) -> usize {
        self.replicas.len()
    }

    fn finished(&self, _cycle: u32, _active: &[usize]) -> bool {
        false
    }

    fn begin_cycle(&mut self, cycle: u32, rng: &mut StdRng) {
        let time = u64::from(cycle) * 10;
        let replicas = &mut self.replicas;
        let injector = &mut self.injector;
        let injected = self.spans.write.time(|| {
            for r in replicas.iter_mut() {
                r.advance_clock(time);
            }
            injector.inject(replicas.len(), rng, |site, key| {
                replicas[site].client_update(key, u64::from(cycle));
            })
        });
        self.writes += u64::from(injected);
    }

    fn contact(&mut self, cycle: u32, i: usize, j: usize, _rng: &mut StdRng) -> ContactStats {
        let (a, b) = pair_mut(&mut self.replicas, i, j);
        let (exchange, scratch) = (&self.exchange, &mut self.scratch);
        let stats = self
            .spans
            .exchange
            .time(|| exchange.exchange_with(a, b, scratch));
        let sent = stats.total_sent() as u64;
        self.sent += sent;
        self.all_full_compares += u64::from(stats.full_compare);
        if cycle > CONFIG.warmup {
            self.exchanges += 1;
            self.full_compares += u64::from(stats.full_compare);
            let (recorder, from, to) = (&mut self.recorder, self.sites[i], self.sites[j]);
            self.spans.record.time(|| recorder.record(from, to, sent));
        }
        ContactStats { sent, useful: sent }
    }
}

fn pair_mut<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j, "a site never contacts itself");
    if i < j {
        let (lo, hi) = v.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

/// One traced run of one distribution; the report must equal
/// `SpatialSteadySim::run` on the same seed.
fn replay(
    topology: &epidemic_net::Topology,
    routes: &Routes,
    sampler: &PartnerSampler,
    seed: u64,
    tally: &mut Tally,
) -> Report {
    // Partner draws cost about as much as a clock read: time one in 8.
    let spans = Spans {
        seams: ContactSpans::sampled(8),
        exchange: Span::every_call(),
        record: Span::every_call(),
        write: Span::every_call(),
    };
    let sites = topology.sites();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut protocol = Replay {
        exchange: AntiEntropy::new(Direction::PushPull, CONFIG.comparison),
        sites,
        replicas: sites.iter().map(|&s| Replica::new(s)).collect(),
        injector: UpdateInjector::new(CONFIG.updates_per_cycle),
        exchanges: 0,
        full_compares: 0,
        recorder: RouteRecorder::new(routes, topology.link_count()),
        scratch: ExchangeScratch::new(),
        spans: &spans,
        writes: 0,
        all_full_compares: 0,
        sent: 0,
    };
    let policy = SpatialPartners::new(sites, sampler);
    let timed = TimedPolicy {
        inner: &policy,
        spans: &spans.seams,
    };
    let a0 = allocations();
    let t0 = Instant::now();
    let engine = CycleEngine::new()
        .max_cycles(CONFIG.warmup + CONFIG.cycles)
        .run(&mut protocol, &timed, &mut rng, &mut ());
    let run_s = t0.elapsed().as_secs_f64();
    let run_allocs = (allocations() - a0) as f64;

    let children = [
        &spans.seams.draw,
        &spans.exchange,
        &spans.record,
        &spans.write,
    ];
    let child_s: f64 = children.iter().map(|s| s.seconds()).sum();
    let child_allocs: f64 = children.iter().map(|s| s.allocs() as f64).sum();
    tally.add("engine_run_s", run_s);
    tally.add("sim.engine_self_s", run_s - child_s);
    tally.add("sim.engine_self_allocs", run_allocs - child_allocs);
    tally.add("sim.contacts", engine.totals.contacts as f64);
    tally.add("sim.cycles", f64::from(engine.cycles));
    tally.ratio(
        "sim.fruitless_ratio",
        engine.totals.fruitless as f64,
        engine.totals.contacts as f64,
    );
    tally.span("sim.partner_draw", &spans.seams.draw);
    tally.add("sim.partner_draws", spans.seams.draw.calls() as f64);
    tally.span("core.exchange", &spans.exchange);
    tally.add("core.exchanges", spans.exchange.calls() as f64);
    tally.add("core.entries_sent", protocol.sent as f64);
    tally.ratio(
        "core.full_compare_rate",
        protocol.all_full_compares as f64,
        spans.exchange.calls() as f64,
    );
    tally.span("db.write", &spans.write);
    tally.add("db.writes", protocol.writes as f64);
    let live: usize = protocol.replicas.iter().map(|r| r.db().live_len()).sum();
    let certs: usize = protocol.replicas.iter().map(|r| r.db().dead_len()).sum();
    let n = protocol.replicas.len() as f64;
    tally.ratio("db.live_per_site", live as f64, n);
    tally.ratio("db.certs_per_site", certs as f64, n);
    tally.span("net.route_record", &spans.record);
    tally.add("net.route_records", spans.record.calls() as f64);
    tally.add(
        "net.links_charged",
        (protocol.recorder.compare.total() + protocol.recorder.update.total()) as f64,
    );

    let measured = f64::from(CONFIG.cycles);
    Report::from(SpatialSteadyReport {
        conversations_per_link_cycle: protocol.recorder.compare.mean_per_link() / measured,
        entries_per_link_cycle: protocol.recorder.update.mean_per_link() / measured,
        full_compare_rate: protocol.full_compares as f64 / protocol.exchanges as f64,
        entry_traffic: protocol.recorder.update,
        measured_cycles: CONFIG.cycles,
        exchanges: protocol.exchanges,
    })
}
