//! Measurement primitives: a counting global allocator, the process peak
//! resident set, call spans, and the machine-and-build stamp.
//!
//! These live in the benchmark rather than being borrowed from the
//! repository's own harness so that a change to the measured code can
//! never change how it is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts every call that asks for
/// memory (`alloc`, `alloc_zeroed`, `realloc`); frees are not counted.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls made by the whole process so far. Differences taken
/// on one thread while no other thread runs are exact.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where `/proc` is
/// missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time, calls and allocations spent inside one layer boundary.
///
/// Every call is counted and its allocations are counted exactly; the
/// clock is read on one call in `period`, and the total time is scaled up
/// from those samples. A period of 1 times every call; a longer period
/// keeps calls that cost about as much as a clock read from being
/// dominated by it. Interior mutability lets spans sit behind the `&self`
/// seams of the engine traits.
#[derive(Debug)]
pub struct Span {
    period: u64,
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_nanos: Cell<u64>,
    allocs: Cell<u64>,
}

impl Span {
    /// A span that reads the clock on every `period`-th call.
    pub fn sampled(period: u64) -> Self {
        assert!(period > 0, "sampling period must be positive");
        Span {
            period,
            calls: Cell::new(0),
            sampled: Cell::new(0),
            sampled_nanos: Cell::new(0),
            allocs: Cell::new(0),
        }
    }

    /// A span that times every call.
    pub fn every_call() -> Self {
        Span::sampled(1)
    }

    /// Runs `f` inside the span.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let call = self.calls.get();
        self.calls.set(call + 1);
        let allocs = allocations();
        let out = if call.is_multiple_of(self.period) {
            let start = Instant::now();
            let out = f();
            self.add_sample(start.elapsed().as_nanos());
            out
        } else {
            f()
        };
        self.allocs.set(self.allocs.get() + allocations() - allocs);
        out
    }

    /// Whether the next call falls on a sample, for spans whose ends are
    /// observed at two different seams (see [`Span::add_sample`]).
    pub fn next_is_sampled(&self) -> bool {
        self.calls.get().is_multiple_of(self.period)
    }

    /// Records one call whose ends the caller observed itself, with its
    /// measured duration when the call was sampled.
    pub fn add_call(&self, nanos: Option<u128>, allocs: u64) {
        self.calls.set(self.calls.get() + 1);
        self.allocs.set(self.allocs.get() + allocs);
        if let Some(nanos) = nanos {
            self.add_sample(nanos);
        }
    }

    /// Records one sampled duration, less what an empty span reads.
    fn add_sample(&self, nanos: u128) {
        self.sampled.set(self.sampled.get() + 1);
        let nanos = u64::try_from(nanos)
            .unwrap_or(u64::MAX)
            .saturating_sub(empty_span_ns());
        self.sampled_nanos
            .set(self.sampled_nanos.get().saturating_add(nanos));
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Allocations made inside the span.
    pub fn allocs(&self) -> u64 {
        self.allocs.get()
    }

    /// Estimated seconds inside the span: the sampled mean times the call
    /// count.
    pub fn seconds(&self) -> f64 {
        let sampled = self.sampled.get();
        if sampled == 0 {
            return 0.0;
        }
        self.sampled_nanos.get() as f64 / sampled as f64 * self.calls.get() as f64 * 1e-9
    }
}

/// Median duration in nanoseconds that a span around no work reads: the
/// clock's own cost inside every sampled interval, which spans subtract.
pub fn empty_span_ns() -> u64 {
    static EMPTY: OnceLock<u64> = OnceLock::new();
    *EMPTY.get_or_init(|| {
        let mut reads: Vec<u64> = (0..20_001)
            .map(|_| {
                let start = Instant::now();
                let end = std::hint::black_box(Instant::now());
                u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX)
            })
            .collect();
        reads.sort_unstable();
        reads[reads.len() / 2]
    })
}

/// The machine and build a result came from, as one JSON object: wall
/// clock here differs widely between machines and between runs, so
/// results from different stamps must not be compared unknowingly.
pub fn stamp() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':').map(|x| x.1))
        .map_or("unknown", str::trim);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut caches = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() != "Instruction" {
            caches.push(format!("\"L{}\":\"{}\"", level.trim(), size.trim()));
        }
    }
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",{}\"rustc\":\"{}\",\"profile\":\"{}\",\
         \"features\":\"{}\",\"git_rev\":\"{}\"}}",
        cpu_model.replace('"', "'"),
        caches.iter().map(|c| format!("{c},")).collect::<String>(),
        env!("BENCH_RUSTC"),
        env!("BENCH_PROFILE"),
        env!("BENCH_FEATURES"),
        env!("BENCH_GIT_REV"),
    )
}
