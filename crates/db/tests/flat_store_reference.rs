//! Differential property tests: the flat backend is observationally
//! equivalent to the B-tree reference backend.
//!
//! Two databases — one per backend — replay the *same* random history of
//! client updates, deletions (with and without retention sites), remote
//! offers, garbage collection and clock advances. After every single
//! operation the pair must agree on everything a protocol can observe:
//! entry contents, live/dead counts, dormant death certificates, the
//! incremental checksum, key-order iteration, peel-back order, the bare
//! timestamp index and the recent-update window. This is the proof
//! obligation that lets the flat backend be the store every `Database`
//! builds while simulation output stays byte-identical.

use epidemic_db::{
    Backend, Clock, Database, Entry, GcPolicy, OfferOutcome, SimClock, SiteId, Timestamp,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Client `Update` at this site.
    Update { key: u8, value: u16 },
    /// Client deletion (plain death certificate).
    Delete { key: u8 },
    /// Client deletion with a dormant-retention site.
    Retain { key: u8, site: u8 },
    /// A remote entry arrives through `offer` (owned) or `offer_ref`
    /// (borrowed) — both paths must agree with each other and across
    /// backends. `value: None` offers a death certificate.
    Offer {
        key: u8,
        value: Option<u16>,
        time: u64,
        site: u8,
        by_ref: bool,
    },
    /// Local clock advances (makes GC and recency windows bite).
    Advance { dt: u64 },
    /// Death-certificate garbage collection.
    Gc { policy: GcPolicy },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(key, value)| Op::Update { key, value }),
        any::<u8>().prop_map(|key| Op::Delete { key }),
        (any::<u8>(), 0u8..4).prop_map(|(key, site)| Op::Retain { key, site }),
        (
            any::<u8>(),
            any::<u16>(),
            any::<bool>(),
            1u64..400,
            1u8..8,
            any::<bool>()
        )
            .prop_map(|(key, value, live, time, site, by_ref)| Op::Offer {
                key,
                value: live.then_some(value),
                time,
                site,
                by_ref,
            }),
        (1u64..120).prop_map(|dt| Op::Advance { dt }),
        prop_oneof![
            Just(GcPolicy::KeepForever),
            (1u64..80).prop_map(|tau| GcPolicy::FixedThreshold { tau }),
            (1u64..60, 1u64..200).prop_map(|(tau1, tau2)| GcPolicy::Dormant { tau1, tau2 }),
        ]
        .prop_map(|policy| Op::Gc { policy }),
    ]
}

/// One backend's replica plus the local clock driving it. Both harnesses
/// replay the identical op stream with identically seeded clocks, so every
/// timestamp handed out matches across backends.
struct Harness {
    db: Database<u8, u16>,
    clock: SimClock,
}

const LOCAL: SiteId = SiteId::new(0);

impl Harness {
    fn new(backend: Backend) -> Self {
        Harness {
            db: Database::with_backend(backend),
            clock: SimClock::new(LOCAL),
        }
    }

    fn step(&mut self, op: &Op) -> Option<OfferOutcome> {
        match *op {
            Op::Update { key, value } => {
                self.db.update(key, value, &mut self.clock);
                None
            }
            Op::Delete { key } => {
                self.db.delete(&key, &mut self.clock);
                None
            }
            Op::Retain { key, site } => {
                self.db.delete_with_retention(
                    &key,
                    vec![LOCAL, SiteId::new(u32::from(site))],
                    &mut self.clock,
                );
                None
            }
            Op::Offer {
                key,
                value,
                time,
                site,
                by_ref,
            } => {
                let at = Timestamp::new(time, SiteId::new(u32::from(site)));
                let entry = match value {
                    Some(v) => Entry::live(v, at),
                    None => Entry::dead(at),
                };
                let now = Timestamp::new(self.clock.peek(), LOCAL);
                Some(if by_ref {
                    self.db.offer_ref(&key, &entry, now)
                } else {
                    self.db.offer(key, entry, now)
                })
            }
            Op::Advance { dt } => {
                let now = self.clock.peek();
                self.clock.advance_to(now + dt);
                None
            }
            Op::Gc { policy } => {
                self.db.collect_garbage(LOCAL, self.clock.peek(), policy);
                None
            }
        }
    }
}

/// Rewrites an [`Op::Offer`] so the offered entry is a pure function of
/// its timestamp: the site id moves into the 2+ range (clear of both
/// replicas' client clocks) and kind/value derive from `(time, site)`.
/// Used by the convergence test, where two independent histories might
/// otherwise collide on a timestamp with different payloads.
fn canonicalize(op: &Op) -> Op {
    match *op {
        Op::Offer {
            key,
            value: _,
            time,
            site,
            by_ref,
        } => {
            let site = 2 + site % 6;
            let live = !(time + u64::from(site) + u64::from(key)).is_multiple_of(4);
            let value = live.then_some((time as u16) ^ (u16::from(site) << 9));
            Op::Offer {
                key,
                value,
                time,
                site,
                by_ref,
            }
        }
        ref other => other.clone(),
    }
}

/// Full observational comparison between the two backends.
fn assert_equivalent(tree: &Harness, flat: &Harness) -> Result<(), TestCaseError> {
    let (t, f) = (&tree.db, &flat.db);
    prop_assert_eq!(t.len(), f.len());
    prop_assert_eq!(t.live_len(), f.live_len());
    prop_assert_eq!(t.dead_len(), f.dead_len());
    prop_assert_eq!(t.dormant_len(), f.dormant_len());
    prop_assert_eq!(t.checksum(), f.checksum());
    prop_assert_eq!(f.checksum(), f.recompute_checksum());
    prop_assert!(t.iter().eq(f.iter()), "key-order walk diverged");
    prop_assert!(
        t.newest_first().eq(f.newest_first()),
        "peel-back order diverged"
    );
    prop_assert!(
        t.timestamp_index().eq(f.timestamp_index()),
        "timestamp index diverged"
    );
    for key in t.keys() {
        prop_assert_eq!(t.entry(key), f.entry(key));
        prop_assert_eq!(t.dormant_certificate(key), f.dormant_certificate(key));
    }
    let now = tree.clock.peek();
    for tau in [0, 5, 50, u64::MAX] {
        prop_assert!(
            t.recent_index(now, tau).eq(f.recent_index(now, tau)),
            "recent index diverged at tau={}",
            tau
        );
        prop_assert!(
            t.recent_entries(now, tau).eq(f.recent_entries(now, tau)),
            "recent entries diverged at tau={}",
            tau
        );
    }
    Ok(())
}

proptest! {
    /// After every operation of a random history, the two backends agree on
    /// every observable: entries, dormant certificates, checksums, and all
    /// three iteration orders.
    #[test]
    fn flat_store_matches_reference(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let mut tree = Harness::new(Backend::BTree);
        let mut flat = Harness::new(Backend::Flat);
        for op in &ops {
            let a = tree.step(op);
            let b = flat.step(op);
            prop_assert_eq!(a, b, "offer outcomes diverged on {:?}", op);
            assert_equivalent(&tree, &flat)?;
        }
    }

    /// Anti-entropy exchange between mixed-backend replicas converges to
    /// equal databases with equal checksums — the §1.1 goal holds across
    /// the seam, not just within one backend.
    ///
    /// Offered entries are derived deterministically from their timestamp
    /// (see [`canonicalize`]) so a timestamp collision between the two
    /// histories can never manufacture two irreconcilable versions — the
    /// same guarantee unique real-world timestamps give the paper.
    #[test]
    fn mixed_backend_exchange_converges(
        ops_a in prop::collection::vec(op_strategy(), 0..60),
        ops_b in prop::collection::vec(op_strategy(), 0..60),
    ) {
        let mut a = Harness::new(Backend::BTree);
        let mut b = Harness::new(Backend::Flat);
        // Give b a disjoint client site id so update timestamps never
        // collide across replicas; remote offers use sites 2+.
        b.clock = SimClock::new(SiteId::new(1));
        for op in &ops_a {
            a.step(&canonicalize(op));
        }
        for op in &ops_b {
            b.step(&canonicalize(op));
        }
        // Push-pull full exchanges until fixpoint: one round can awaken a
        // dormant certificate whose reinstalled copy only crosses over on
        // the next round, so loop (awakenings strictly shrink the dormant
        // stores, guaranteeing termination long before the bound).
        for _ in 0..6 {
            let now_b = Timestamp::new(b.clock.peek(), SiteId::new(1));
            let from_a: Vec<_> = a.db.iter().map(|(k, e)| (*k, e.clone())).collect();
            for (k, e) in &from_a {
                b.db.offer_ref(k, e, now_b);
            }
            let now_a = Timestamp::new(a.clock.peek(), LOCAL);
            let from_b: Vec<_> = b.db.iter().map(|(k, e)| (*k, e.clone())).collect();
            for (k, e) in &from_b {
                a.db.offer_ref(k, e, now_a);
            }
            if a.db == b.db {
                break;
            }
        }
        // Dormant stores may legitimately differ (awakenings depend on what
        // arrived), but main stores and checksums must agree.
        prop_assert_eq!(&a.db, &b.db);
        prop_assert_eq!(a.db.checksum(), b.db.checksum());
        prop_assert!(a.db.timestamp_index().eq(b.db.timestamp_index()));
    }
}
