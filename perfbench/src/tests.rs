//! The benchmark's self-tests. Run them optimized, as the workloads are
//! full size: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::{Mutex, MutexGuard};

use crate::measure::Budget;
use crate::tally::{END_TO_END, PER_LAYER};
use crate::{mixed, run, Outcome, WORKLOADS};

/// The allocation counter is process-wide: every test holds this lock so
/// none allocates while another counts.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("missing metric {name}"))
        .1
}

fn clean(workload: &str, outcome: &Outcome) {
    assert!(
        outcome.checks.failed == 0 && outcome.checks.attempted > 0,
        "{workload}: {:?}",
        outcome.checks.failures
    );
}

/// Counts repeat exactly between two single-thread runs of the same
/// trials; outputs are identical at one and two threads (every untraced
/// run compares them) and traced and untraced (every traced run does).
#[test]
fn counts_repeat_and_outputs_match_across_threads_and_tracing() {
    let _serial = serial();
    for &workload in WORKLOADS {
        let plain = |_| run(workload, 11, Budget::Trials(2), false).expect("known workload");
        let (a, b) = (plain(()), plain(()));
        clean(workload, &a);
        assert_eq!(
            metric(&a, "allocs_per_contact"),
            metric(&b, "allocs_per_contact"),
            "{workload}"
        );
        assert!(metric(&a, "allocs_per_contact") > 0.0, "{workload}");

        let traced = |_| run(workload, 11, Budget::Trials(2), true).expect("known workload");
        let (a, b) = (traced(()), traced(()));
        clean(workload, &a);
        for name in [
            "sim.contacts",
            "sim.cycles",
            "core.entries_sent",
            "net.links_charged",
            "db.lazy_rows",
            "core.exchanges",
            "sim.partner_draws",
        ] {
            assert_eq!(metric(&a, name), metric(&b, name), "{workload} {name}");
        }
        assert!(metric(&a, "sim.contacts") > 0.0, "{workload}");
    }
}

#[test]
fn generated_scenarios_are_a_pure_function_of_the_seed() {
    let _serial = serial();
    for slot in 0..mixed::POOL {
        assert_eq!(mixed::scenario_text(5, slot), mixed::scenario_text(5, slot));
    }
    let pool = |seed| {
        (0..mixed::POOL)
            .map(|s| mixed::scenario_text(seed, s))
            .collect::<Vec<_>>()
    };
    assert_ne!(pool(5), pool(6));
}

#[test]
fn unknown_workloads_are_refused() {
    let _serial = serial();
    assert!(run("no-such-workload", 1, Budget::Trials(1), false).is_none());
}

/// BENCHMARK.json names exactly the workloads and metrics the binary
/// reports, in the same order.
#[test]
fn benchmark_json_matches_the_binary() {
    let _serial = serial();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = text
        .split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1))
        .collect();
    let expected: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(PER_LAYER.iter().map(|m| m.0))
        .collect();
    assert_eq!(names, expected);
}
