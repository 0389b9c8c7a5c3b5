//! Metric names, units, and the accumulator the traced replays fill.

use std::collections::BTreeMap;

use crate::probe::Span;

/// End-to-end metrics, reported from untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("contacts_per_ref_s", "1/s"),
    ("contacts_per_ref_s_2t", "1/s"),
    ("allocs_per_contact", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported from the traced run (`--trace 1`). A
/// workload that does not reach a layer reports 0 for it (README.md lists
/// which workload fills which metric).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.engine_self_s", "s/trial"),
    ("sim.engine_self_allocs", "count/trial"),
    ("sim.contacts", "count/trial"),
    ("sim.cycles", "count/trial"),
    ("sim.fruitless_ratio", "ratio"),
    ("sim.partner_draw_s", "s/trial"),
    ("sim.partner_draw_allocs", "count/trial"),
    ("sim.partner_draws", "count/trial"),
    ("sim.active_roster_s", "s/trial"),
    ("sim.active_roster_allocs", "count/trial"),
    ("sim.active_draw_s", "s/trial"),
    ("sim.active_draw_allocs", "count/trial"),
    ("sim.active_apply_s", "s/trial"),
    ("sim.active_apply_allocs", "count/trial"),
    ("sim.active_sites_per_cycle", "sites"),
    ("core.exchange_s", "s/trial"),
    ("core.exchange_allocs", "count/trial"),
    ("core.exchanges", "count/trial"),
    ("core.entries_sent", "count/trial"),
    ("core.full_compare_rate", "ratio"),
    ("core.ae_sent", "count/trial"),
    ("core.rumor_sent", "count/trial"),
    ("db.write_s", "s/trial"),
    ("db.write_allocs", "count/trial"),
    ("db.writes", "count/trial"),
    ("db.live_per_site", "entries"),
    ("db.certs_per_site", "entries"),
    ("db.lazy_rows", "rows"),
    ("db.deletes", "count/trial"),
    ("db.reads", "count/trial"),
    ("db.read_miss_ratio", "ratio"),
    ("db.uncancelled_share", "ratio"),
    ("net.route_record_s", "s/trial"),
    ("net.route_record_allocs", "count/trial"),
    ("net.route_records", "count/trial"),
    ("net.links_charged", "count/trial"),
    ("net.setup_s", "s"),
    ("net.setup_allocs", "count"),
    ("net.graph_build_s", "s"),
    ("net.graph_build_allocs", "count"),
    ("runner.busy_2t_s", "s/trial"),
    ("runner.idle_2t_s", "s/trial"),
    ("trace.observer_s", "s/trial"),
    ("trace.observer_allocs", "count/trial"),
    ("bench.untraced_trial_s", "s/trial"),
    ("bench.traced_trial_s", "s/trial"),
    ("bench.trace_overhead_s", "s/trial"),
    ("bench.unexplained_share", "ratio"),
    ("bench.empty_span_ns", "ns"),
];

/// Per-layer accumulator. Sums are divided by the traced trial count at
/// the end; ratios are the quotient of their two sums; `once` values are
/// reported as recorded.
#[derive(Debug, Default)]
pub struct Tally {
    sums: BTreeMap<&'static str, f64>,
    ratios: BTreeMap<&'static str, (f64, f64)>,
    once: BTreeMap<&'static str, f64>,
}

impl Tally {
    /// Adds `value` to a per-trial sum.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    /// Adds to both halves of the ratio `name`.
    pub fn ratio(&mut self, name: &'static str, numerator: f64, denominator: f64) {
        let r = self.ratios.entry(name).or_default();
        r.0 += numerator;
        r.1 += denominator;
    }

    /// Records a value measured once per run.
    pub fn once(&mut self, name: &'static str, value: f64) {
        self.once.insert(name, value);
    }

    /// Adds a span's time and allocations under `<prefix>_s` and
    /// `<prefix>_allocs`.
    pub fn span(&mut self, prefix: &'static str, span: &Span) {
        let (s, allocs) = span_names(prefix);
        self.add(s, span.seconds());
        self.add(allocs, span.allocs() as f64);
    }

    /// The current sum under `name` (0 when absent).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric: sums per trial, ratios, once values; 0 for
    /// layers the workload does not reach.
    pub fn finish(&self, trials: u64) -> Vec<(&'static str, f64, &'static str)> {
        let trials = trials.max(1) as f64;
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = if let Some(v) = self.once.get(name) {
                    *v
                } else if let Some(&(num, den)) = self.ratios.get(name) {
                    if den > 0.0 {
                        num / den
                    } else {
                        0.0
                    }
                } else {
                    self.sum(name) / trials
                };
                (name, value, unit)
            })
            .collect()
    }
}

/// The `_s` / `_allocs` metric names for a span prefix.
fn span_names(prefix: &str) -> (&'static str, &'static str) {
    let find = |suffix: &str| {
        PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .find(|n| n.strip_suffix(suffix) == Some(prefix))
            .unwrap_or_else(|| panic!("no per-layer metric {prefix}{suffix}"))
    };
    (find("_s"), find("_allocs"))
}
