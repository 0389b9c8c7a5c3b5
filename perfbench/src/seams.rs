//! Timing wrappers for the cycle engine's public seams: a
//! [`PartnerPolicy`] that times partner draws, and an [`Observer`] that
//! times the wrapped observer's hooks and the protocol contact between
//! the draw and the observer callback.
//!
//! The engine calls `attempt`, then the protocol's `contact`, then
//! `on_contact`, in that order for each initiator; so the interval from
//! the end of a draw to the next `on_contact` is the contact itself, even
//! when the protocol cannot be wrapped from outside.

use std::cell::Cell;
use std::time::Instant;

use epidemic_sim::engine::{ContactStats, Observer, PartnerPolicy};
use rand::rngs::StdRng;

use crate::probe::{allocations, Span};

/// The spans the engine-seam wrappers fill.
#[derive(Debug)]
pub struct ContactSpans {
    /// `PartnerPolicy::attempt`.
    pub draw: Span,
    /// From a draw's return to the next `on_contact`.
    pub contact: Span,
    /// The wrapped observer's per-contact hook.
    pub observer: Span,
    /// The wrapped observer's per-run and per-cycle hooks, which cost far
    /// more than a clock read and are timed on every call.
    pub observer_cycle: Span,
    /// Where the last draw ended: clock reading (sampled draws only) and
    /// allocation count.
    pending: Cell<Option<(Option<Instant>, u64)>>,
}

impl ContactSpans {
    /// Spans reading the clock on one call in `period`.
    pub fn sampled(period: u64) -> Self {
        ContactSpans {
            draw: Span::sampled(period),
            contact: Span::sampled(period),
            observer: Span::sampled(period),
            observer_cycle: Span::every_call(),
            pending: Cell::new(None),
        }
    }
}

/// Times every partner draw of `inner`.
pub struct TimedPolicy<'a, L: ?Sized> {
    /// The policy being timed.
    pub inner: &'a L,
    /// Where the timings go.
    pub spans: &'a ContactSpans,
}

impl<L: PartnerPolicy + ?Sized> PartnerPolicy for TimedPolicy<'_, L> {
    fn attempt(&self, i: usize, rng: &mut StdRng) -> usize {
        let sampled = self.spans.draw.next_is_sampled();
        let allocs = allocations();
        let start = sampled.then(Instant::now);
        let j = self.inner.attempt(i, rng);
        let end = sampled.then(Instant::now);
        let after = allocations();
        let nanos = start.zip(end).map(|(s, e)| (e - s).as_nanos());
        self.spans.draw.add_call(nanos, after - allocs);
        self.spans.pending.set(Some((end, after)));
        j
    }
}

/// Times the hooks of `inner`, and closes the contact span that the last
/// [`TimedPolicy`] draw opened.
pub struct TimedObserver<'a, O> {
    /// The observer being timed.
    pub inner: O,
    /// Where the timings go.
    pub spans: &'a ContactSpans,
}

impl<P: ?Sized, O: Observer<P>> Observer<P> for TimedObserver<'_, O> {
    fn on_run_start(&mut self, protocol: &P) {
        let inner = &mut self.inner;
        self.spans
            .observer_cycle
            .time(|| inner.on_run_start(protocol));
    }

    fn on_contact(&mut self, cycle: u32, i: usize, j: usize, stats: &ContactStats) {
        if let Some((start, allocs)) = self.spans.pending.take() {
            let nanos = start.map(|s| s.elapsed().as_nanos());
            self.spans.contact.add_call(nanos, allocations() - allocs);
        }
        let inner = &mut self.inner;
        self.spans
            .observer
            .time(|| inner.on_contact(cycle, i, j, stats));
    }

    fn on_cycle_end(&mut self, cycle: u32, protocol: &P) {
        let inner = &mut self.inner;
        self.spans
            .observer_cycle
            .time(|| inner.on_cycle_end(cycle, protocol));
    }
}
