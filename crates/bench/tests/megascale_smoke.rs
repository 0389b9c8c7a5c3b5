//! CI smoke for the megascale sweep: the `n = 10⁴` point of
//! fig-megascale, under the counting allocator, with a wall-clock budget.
//!
//! This pins the tentpole's load-bearing claims at a size CI can
//! afford:
//!
//! * on the eager [`reference`] loop, which builds a real replica per
//!   site, the flat backend runs the *same epidemic* as the BTree backend
//!   (identical `EpidemicResult` on the same seed),
//! * it asks the allocator for strictly less while doing so, and
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

#[test]
fn flat_backend_matches_btree_and_allocates_strictly_less() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let start = Instant::now();
    let seed = 1987 ^ N as u64;

    let before = allocations();
    let tree = reference::run_uniform(N, K, seed, Backend::BTree).result;
    let tree_allocs = allocations() - before;

    let before = allocations();
    let flat = reference::run_uniform(N, K, seed, Backend::Flat).result;
    let flat_allocs = allocations() - before;

    // Same seed, same RNG stream, observationally equivalent storage:
    // the epidemic itself must be identical to the last bit.
    assert_eq!(tree, flat, "backends diverged on the same epidemic");
    assert!(tree.residue < 0.05, "epidemic failed to spread: {tree:?}");
    assert!(
        flat_allocs < tree_allocs,
        "flat backend allocated {flat_allocs} times, btree {tree_allocs} — \
         the flat backend must allocate strictly less at n = 10^4"
    );

    // Scale-free topology exercises the NeighborPartners + DegreeGraph
    // path the big sweep uses; same equivalence requirement.
    let graph = DegreeGraph::scale_free(N, 2, 1987);
    let tree = reference::run_scale_free(&graph, K, seed, Backend::BTree).result;
    let flat = reference::run_scale_free(&graph, K, seed, Backend::Flat).result;
    assert_eq!(tree, flat, "backends diverged on the scale-free epidemic");

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
