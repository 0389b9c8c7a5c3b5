//! CI smoke for the megascale sweep: the `n = 10⁴` point of
//! fig-megascale, under the counting allocator, with a wall-clock budget.
//!
//! This pins the tentpole's load-bearing claims at a size CI can
//! afford:
//!
//! * the eager [`reference`] loop, which builds a real replica per site,
//!   spreads the epidemic while asking the allocator for fewer than two
//!   blocks per site, and runs the same epidemic as the fast path on both
//!   topologies inside a wall-clock budget, and
//! * the fast path plus streaming aggregation allocates *sublinearly* in
//!   `n` — lazy materialization means no replica-per-site, and the
//!   [`AggregateObserver`] folds the whole run into bounded memory.
//!
//! Like `zero_alloc.rs`, this file owns its test binary: it registers
//! [`CountingAlloc`] as the global allocator, so it is compiled out
//! without the `count-allocs` feature. Run it with
//!
//! ```text
//! cargo test -p epidemic-bench --features count-allocs --test megascale_smoke --release
//! ```

#![cfg(feature = "count-allocs")]

use std::sync::Mutex;
use std::time::{Duration, Instant};

use epidemic_bench::alloc_counter::{allocations, CountingAlloc};
use epidemic_db::Backend;
use epidemic_net::DegreeGraph;
use epidemic_sim::engine::AggregateObserver;
use epidemic_sim::megascale::reference;
use epidemic_sim::MegascaleSim;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocation counter is process-global, and the test harness runs
/// tests on parallel threads: each test holds this lock for its whole
/// body, so no test's count includes a sibling's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

const N: usize = 10_000;
/// Coin loss rate of fig-megascale's protocol (push, feedback, coin k=4).
const K: u32 = 4;
/// Generous even for an unoptimized single-CPU debug run; a release build
/// finishes the whole test in a couple of seconds. The budget exists to
/// catch complexity regressions (an accidentally quadratic path at 10⁴
/// sites blows straight past it), not to benchmark.
const BUDGET: Duration = Duration::from_secs(300);

/// The eager reference loop at `n = 10⁴`: one replica per site, each
/// holding a single entry in one row block, so the whole uniform run must
/// stay under two allocations per site. (A release build on x86-64 Linux
/// measures 19,844; EXPERIMENTS.md records the retired BTree layout, two
/// tree nodes per site, at 29,802.)
#[test]
fn reference_loop_spreads_and_allocates_under_two_blocks_per_site() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let start = Instant::now();
    let seed = 1987 ^ N as u64;

    let before = allocations();
    let uniform = reference::run_uniform(N, K, seed, Backend::Flat).result;
    let uniform_allocs = allocations() - before;
    assert!(
        uniform.residue < 0.05,
        "epidemic failed to spread: {uniform:?}"
    );
    assert!(
        uniform_allocs < 2 * N as u64,
        "reference loop allocated {uniform_allocs} times for n = {N} — \
         a single-entry site must cost one row block, not two"
    );

    // The fast path runs the same epidemic to the last bit on both
    // topologies; scale-free exercises the DegreeGraph path the big sweep
    // uses.
    let sim = MegascaleSim::new().workers(1);
    assert_eq!(uniform, sim.run_uniform_fast(N, seed), "uniform diverged");
    let graph = DegreeGraph::scale_free(N, 2, 1987);
    let scale_free = reference::run_scale_free(&graph, K, seed, Backend::Flat).result;
    assert_eq!(
        scale_free,
        sim.run_scale_free_fast(&graph, seed),
        "scale-free diverged"
    );

    let elapsed = start.elapsed();
    assert!(
        elapsed < BUDGET,
        "megascale smoke took {elapsed:?}, budget {BUDGET:?}"
    );
}

/// The fast path's memory claim, in allocator terms: a full fast-path
/// epidemic at `n = 10⁴`, streamed through an [`AggregateObserver`],
/// allocates strictly fewer than one heap allocation per site. The
/// eager reference loop cannot do this — it materializes a replica per
/// site before the first contact — so this bound is what "lazy site
/// materialization" buys, and it holds for the observer too (the
/// aggregate is bounded, not per-event).
#[test]
fn fast_path_with_streaming_aggregation_allocates_sublinearly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let start = Instant::now();
    let sim = MegascaleSim::new().workers(1);
    let seed = 1987 ^ N as u64;

    let before = allocations();
    let mut sink = AggregateObserver::new();
    let r = sim.run_uniform_fast_observed(N, seed, &mut sink);
    let agg = sink.finish();
    let fast_allocs = allocations() - before;

    assert!(r.residue < 0.05, "epidemic failed to spread: {r:?}");
    assert_eq!(agg.runs(), 1, "aggregate folded exactly one run");
    assert!(
        fast_allocs < N as u64,
        "fast path + aggregation allocated {fast_allocs} times for n = {N} — \
         lazy materialization must stay strictly below one allocation per site"
    );

    let elapsed = start.elapsed();
    assert!(
        elapsed < BUDGET,
        "fast-path smoke took {elapsed:?}, budget {BUDGET:?}"
    );
}
