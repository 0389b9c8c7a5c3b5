//! The closed-loop measurement shared by every workload: one driver
//! thread runs trial after trial, each starting when the previous one
//! ends, then the same trials again at two threads; or, traced, each
//! trial untraced and then through the instrumented replay.

use std::fmt::{self, Debug, Write};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::Instant;

use epidemic_sim::runner::TrialRunner;

use crate::probe::{allocations, empty_span_ns, peak_rss_mb};
use crate::tally::{Tally, END_TO_END};

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Keep starting trials until this many seconds have passed.
    Seconds(f64),
    /// Run exactly this many measured trials (rounded up to whole rounds),
    /// so that counts repeat exactly between runs (the self-tests use it).
    #[cfg_attr(not(test), allow(dead_code))]
    Trials(u64),
}

/// Output checks made during a run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Fewest measured trials a timed run makes.
const MIN_TRIALS: u64 = 3;
/// Single-thread outputs whose digests are kept to compare against the
/// two-thread run.
const KEEP: usize = 64;
/// Share of a timed run spent on the single-thread (or traced) phase.
const FIRST_PHASE_SHARE: f64 = 0.7;
/// Seconds the calibration kernel took on the reference machine (the one
/// the first numbers in README.md come from).
const REFERENCE_CALIBRATION_S: f64 = 0.012;
/// Trials run after one calibration before the next is due.
const CALIBRATION_EVERY_S: f64 = 0.1;
/// Every this many calibrations, the kernel runs a second time straight
/// after the first, to show that the trials before it do not change it.
const REPEAT_EVERY: usize = 4;

/// A fixed piece of work shaped like the workloads' (ordered-map churn:
/// allocation, pointer chasing, unpredictable branches) but made of the
/// standard library only, and run on threads of its own (see
/// [`Calibrators`]), so the measured code neither is in it nor shares
/// its heap. Returns its wall-clock seconds.
fn calibration_kernel() -> f64 {
    let start = Instant::now();
    let mut map = std::collections::BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..40_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 50_000, i);
        if let Some(v) = map.get(&(x.rotate_left(17) % 50_000)) {
            acc = acc.wrapping_add(*v);
        }
        if i % 3 == 0 {
            map.remove(&(x.rotate_left(29) % 50_000));
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Two long-lived threads that run the calibration kernel on request.
/// glibc gives each thread a malloc arena of its own, and these threads
/// allocate nothing but the kernel's map, so the heap the kernel works
/// in is its own: the trials, which allocate on the main thread or on
/// the trial runner's short-lived threads, cannot fragment it. The one-
/// and two-thread calibrations run on the same threads.
struct Calibrators {
    requests: Vec<mpsc::Sender<()>>,
    results: Mutex<mpsc::Receiver<f64>>,
}

fn calibrators() -> &'static Calibrators {
    static CALIBRATORS: OnceLock<Calibrators> = OnceLock::new();
    CALIBRATORS.get_or_init(|| {
        let (done, results) = mpsc::channel();
        let requests = (0..2)
            .map(|_| {
                let (request, requested) = mpsc::channel::<()>();
                let done = done.clone();
                std::thread::spawn(move || {
                    for () in requested {
                        if done.send(calibration_kernel()).is_err() {
                            break;
                        }
                    }
                });
                request
            })
            .collect();
        Calibrators {
            requests,
            results: Mutex::new(results),
        }
    })
}

/// The process's peak resident set in MB once the calibration threads
/// have run, before any workload input is built: what the harness itself
/// holds. Measured on the first call, which `crate::run` makes before
/// set-up.
pub fn harness_rss_mb() -> f64 {
    static HARNESS: OnceLock<f64> = OnceLock::new();
    *HARNESS.get_or_init(|| {
        calibrate(2);
        peak_rss_mb()
    })
}

/// The calibration kernel on `threads` (1 or 2) calibration threads at
/// once; mean seconds.
fn calibrate(threads: usize) -> f64 {
    let calibrators = calibrators();
    let results = calibrators
        .results
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    for request in &calibrators.requests[..threads] {
        request.send(()).expect("calibration thread is running");
    }
    let total: f64 = (0..threads)
        .map(|_| results.recv().expect("calibration thread is running"))
        .sum();
    total / threads as f64
}

/// Wall-clock restated at the reference machine's speed: each stretch of
/// trials is scaled by how much slower the calibration kernel ran just
/// before it than on the reference machine. The shared machine the
/// benchmark was written on steps between speed levels for seconds at a
/// time; the kernel follows those steps, so the restated time does not.
struct ReferenceClock {
    threads: usize,
    scale: f64,
    since: f64,
    wall: f64,
    reference: f64,
    calibrations: Vec<f64>,
    repeat_ratios: Vec<f64>,
}

impl ReferenceClock {
    fn new(threads: usize) -> Self {
        ReferenceClock {
            threads,
            scale: 1.0,
            since: f64::INFINITY,
            wall: 0.0,
            reference: 0.0,
            calibrations: Vec::new(),
            repeat_ratios: Vec::new(),
        }
    }

    /// Calibrates if the last calibration covered enough trials.
    fn before_trial(&mut self) {
        if self.since >= CALIBRATION_EVERY_S {
            let c = calibrate(self.threads);
            if self.calibrations.len() % REPEAT_EVERY == REPEAT_EVERY - 1 {
                self.repeat_ratios.push(c / calibrate(self.threads));
            }
            self.calibrations.push(c);
            self.scale = REFERENCE_CALIBRATION_S / c;
            self.since = 0.0;
        }
    }

    /// Adds a timed stretch of trials.
    fn add(&mut self, seconds: f64) {
        self.since += seconds;
        self.wall += seconds;
        self.reference += seconds * self.scale;
    }

    /// The median calibration in ms; the median ratio of a calibration
    /// after trials to its back-to-back repeat, and how many there were.
    fn calibration_summary(&mut self) -> (f64, f64, usize) {
        self.calibrations.sort_by(f64::total_cmp);
        self.repeat_ratios.sort_by(f64::total_cmp);
        (
            quantile(&self.calibrations, 0.5) * 1e3,
            quantile(&self.repeat_ratios, 0.5),
            self.repeat_ratios.len(),
        )
    }
}

/// One workload, as the untraced loop sees it. Trial `k` of a run is a
/// pure function of the run seed and `k`; trial 0 is a warm-up.
pub struct Untraced<'a, O> {
    /// Median set-up time of the run's inputs.
    pub setup_s: f64,
    /// Trials per round: runs stop only on whole rounds, so each round's
    /// mix of inputs is weighted equally.
    pub round: u64,
    /// Trials per two-thread batch (a whole number of rounds).
    pub batch_2t: u64,
    /// Allocations are counted on this many measured trials, a fixed
    /// prefix of every run, so the count repeats exactly.
    pub alloc_trials: u64,
    /// Runs trial `k` at one thread.
    pub trial: &'a (dyn Fn(u64) -> O + Sync),
    /// Runs `count` trials from `first` at two threads.
    pub trials_2t: &'a dyn Fn(u64, u64) -> Vec<O>,
    /// Engine contacts a trial executed.
    pub contacts: fn(&O) -> u64,
    /// Whether a trial's output is correct.
    pub check: &'a dyn Fn(&O) -> bool,
}

/// A 64-bit FNV-1a digest of a value's `Debug` form. Kept in place of
/// the output itself, so the comparison of one- and two-thread outputs
/// holds a few bytes per trial, not the outputs, in the measured peak
/// resident set.
fn digest<O: Debug>(out: &O) -> u64 {
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for &b in s.as_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    write!(fnv, "{out:?}").expect("formatting into a digest cannot fail");
    fnv.0
}

/// The end-to-end metrics of an untraced run, plus report lines.
pub fn untraced<O: Debug>(
    budget: Budget,
    w: &Untraced<'_, O>,
    checks: &mut Checks,
    report: &mut Vec<String>,
) -> Vec<Metric> {
    let warm = (w.trial)(0);
    checks.record((w.check)(&warm), || "trial 0 output check".to_string());
    drop(warm);

    let first_phase = Instant::now();
    let mut times = Vec::new();
    let mut clock = ReferenceClock::new(1);
    let mut contacts = 0u64;
    let (mut allocs, mut alloc_contacts) = (0u64, 0u64);
    let mut kept = Vec::new();
    for k in 1.. {
        clock.before_trial();
        let a0 = allocations();
        let t0 = Instant::now();
        let out = (w.trial)(k);
        let dt = t0.elapsed().as_secs_f64();
        let a = allocations() - a0;
        let c = (w.contacts)(&out);
        if k <= w.alloc_trials {
            allocs += a;
            alloc_contacts += c;
        }
        contacts += c;
        clock.add(dt);
        times.push(dt);
        checks.record((w.check)(&out), || format!("trial {k} output check"));
        if kept.len() < KEEP {
            kept.push(digest(&out));
        }
        let done = k % w.round == 0
            && match budget {
                Budget::Seconds(s) => {
                    k >= MIN_TRIALS && first_phase.elapsed().as_secs_f64() >= s * FIRST_PHASE_SHARE
                }
                Budget::Trials(n) => k >= n,
            };
        if done {
            break;
        }
    }

    // Read before the two-thread pass: the trial runner's threads each
    // take a malloc arena, and how far those grow depends on thread
    // timing, which would make the peak vary from run to run.
    let peak_rss_1t = peak_rss_mb();
    report.push(format!(
        "process peak RSS after the single-thread trials: {peak_rss_1t:.2} MB, of which the \
         harness {:.2} MB",
        harness_rss_mb()
    ));

    let second_phase = Instant::now();
    let mut clock_2t = ReferenceClock::new(2);
    let mut contacts_2t = 0u64;
    let mut first = 1u64;
    loop {
        clock_2t.before_trial();
        let t0 = Instant::now();
        let outs = (w.trials_2t)(first, w.batch_2t);
        clock_2t.add(t0.elapsed().as_secs_f64());
        for (k, out) in (first..).zip(&outs) {
            contacts_2t += (w.contacts)(out);
            match usize::try_from(k - 1).ok().and_then(|i| kept.get(i)) {
                Some(&one) => {
                    checks.record(one == digest(out), || format!("trial {k}: 1 vs 2 threads"))
                }
                None => checks.record((w.check)(out), || format!("trial {k} (2t) output check")),
            }
        }
        first += w.batch_2t;
        let done = match budget {
            Budget::Seconds(s) => {
                second_phase.elapsed().as_secs_f64() >= s * (1.0 - FIRST_PHASE_SHARE)
            }
            Budget::Trials(_) => true,
        };
        if done {
            break;
        }
    }

    times.sort_by(f64::total_cmp);
    report.push(format!(
        "trials: {} at 1 thread ({:.3}s timed), {} at 2 threads ({:.3}s timed)",
        times.len(),
        clock.wall,
        first - 1,
        clock_2t.wall
    ));
    report.push(format!(
        "contacts_per_s: {} /s, contacts_per_s_2t: {} /s (wall-clock, not restated)",
        contacts as f64 / clock.wall,
        contacts_2t as f64 / clock_2t.wall
    ));
    let (one, two) = (clock.calibration_summary(), clock_2t.calibration_summary());
    report.push(format!(
        "calibration kernel median: {:.4} ms at 1 thread, {:.4} ms at 2 (reference {} ms)",
        one.0,
        two.0,
        REFERENCE_CALIBRATION_S * 1e3
    ));
    report.push(format!(
        "calibration after trials / back-to-back repeat: median {:.4} over {} pairs at 1 \
         thread, {:.4} over {} at 2",
        one.1, one.2, two.1, two.2
    ));
    // Per-trial latency is reported but not gated: under wall-clock that
    // steps between levels, the median trial jumps between them, while
    // the throughput (a mean) moves in proportion.
    report.push(format!(
        "trial_ms_p50: {:.4} ms over {} trials",
        quantile(&times, 0.5) * 1e3,
        times.len()
    ));
    if times.len() >= 100 {
        report.push(format!(
            "trial_ms_p90: {:.4} ms over {} trials",
            quantile(&times, 0.9) * 1e3,
            times.len()
        ));
    }
    let values = [
        w.setup_s,
        contacts as f64 / clock.reference,
        contacts_2t as f64 / clock_2t.reference,
        allocs as f64 / alloc_contacts.max(1) as f64,
        peak_rss_1t,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect()
}

/// One workload, as the traced loop sees it.
pub struct Traced<'a, O> {
    /// Trials per round (see [`Untraced::round`]).
    pub round: u64,
    /// Runs trial `k` untraced at one thread.
    pub trial: &'a (dyn Fn(u64) -> O + Sync),
    /// Runs trial `k` through the instrumented replay, adding its layer
    /// spans and counts to the tally, and the wall-clock of its engine
    /// runs under `engine_run_s`.
    pub traced: &'a mut dyn FnMut(u64, &mut Tally) -> O,
    /// Whether a trial's output is correct.
    pub check: &'a dyn Fn(&O) -> bool,
    /// Trials per two-thread batch; 0 when the workload does not fan
    /// trials out through the trial runner.
    pub runner_batch: u64,
}

/// The per-layer metrics of a traced run. Every traced trial's output
/// must equal its untraced output.
pub fn traced<O: PartialEq + Send>(
    budget: Budget,
    w: &mut Traced<'_, O>,
    tally: &mut Tally,
    checks: &mut Checks,
    report: &mut Vec<String>,
) -> Vec<Metric> {
    let warm = (w.trial)(0);
    checks.record((w.check)(&warm), || "trial 0 output check".to_string());
    drop(warm);

    let start = Instant::now();
    let mut trials = 0u64;
    for k in 1.. {
        let t0 = Instant::now();
        let plain = (w.trial)(k);
        let untraced_s = t0.elapsed().as_secs_f64();
        let run_before = tally.sum("engine_run_s");
        let t1 = Instant::now();
        let traced = (w.traced)(k, tally);
        let traced_s = t1.elapsed().as_secs_f64();
        let run_s = tally.sum("engine_run_s") - run_before;
        checks.record(plain == traced && (w.check)(&plain), || {
            format!("trial {k}: traced output differs from untraced, or fails its check")
        });
        tally.add("bench.untraced_trial_s", untraced_s);
        tally.add("bench.traced_trial_s", traced_s);
        tally.add("bench.trace_overhead_s", traced_s - untraced_s);
        tally.ratio("bench.unexplained_share", traced_s - run_s, traced_s);
        trials += 1;
        let done = k % w.round == 0
            && match budget {
                Budget::Seconds(s) => {
                    k >= MIN_TRIALS && start.elapsed().as_secs_f64() >= s * FIRST_PHASE_SHARE
                }
                Budget::Trials(n) => k >= n,
            };
        if done {
            break;
        }
    }

    if w.runner_batch > 0 {
        let runner_start = Instant::now();
        let mut first = 1u64;
        loop {
            let trial = w.trial;
            let t0 = Instant::now();
            let busy: Vec<f64> = TrialRunner::new()
                .threads(2)
                .run(w.runner_batch, first, |k| {
                    let t = Instant::now();
                    std::hint::black_box(trial(k));
                    t.elapsed().as_secs_f64()
                });
            let wall = t0.elapsed().as_secs_f64();
            let busy: f64 = busy.iter().sum();
            let count = w.runner_batch as f64;
            tally.ratio("runner.busy_2t_s", busy, count);
            tally.ratio("runner.idle_2t_s", 2.0 * wall - busy, count);
            first += w.runner_batch;
            let done = match budget {
                Budget::Seconds(s) => {
                    runner_start.elapsed().as_secs_f64() >= s * (1.0 - FIRST_PHASE_SHARE)
                }
                Budget::Trials(_) => true,
            };
            if done {
                break;
            }
        }
    }
    tally.once("bench.empty_span_ns", empty_span_ns() as f64);
    report.push(format!("traced trials: {trials}"));
    tally.finish(trials)
}

/// The `q` quantile of sorted `values` (nearest rank, lower).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).floor() as usize;
    sorted[rank]
}

/// Median seconds of `reps` runs of `build`, each restated at the
/// reference machine's speed by a calibration just before it (see
/// [`ReferenceClock`]), and the last value built.
pub fn median_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let scale = REFERENCE_CALIBRATION_S / calibrate(1);
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64() * scale);
        last = Some(built);
    }
    times.sort_by(f64::total_cmp);
    (
        quantile(&times, 0.5),
        last.expect("at least one set-up ran"),
    )
}

/// The seed of trial `k` of a run: a SplitMix64 mix of the run seed and
/// the trial index.
pub fn trial_seed(run_seed: u64, k: u64) -> u64 {
    let mut z = run_seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
