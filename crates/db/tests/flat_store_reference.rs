//! Differential property tests: [`Database`] — a [`FlatStore`] of
//! timestamp-sorted rows plus a dormant side store — against a naive
//! executable spec of the same replica.
//!
//! The spec ([`Spec`]) is the paper's definition written out directly: a
//! plain `BTreeMap` main store plus a `BTreeMap` of dormant death
//! certificates. Its checksum is folded from scratch, its peel-back order,
//! timestamp index and recent window come from sorting by
//! `(timestamp, key)`, and `offer`, dormant awakening and garbage
//! collection are spelled out without any shared code path.
//!
//! Both replay the *same* random history of client updates, deletions
//! (with and without retention sites), remote offers, garbage collection
//! and clock advances. After every single operation they must agree on
//! everything a protocol can observe: every `u8` key's entry, value and
//! dormant certificate, live/dead/dormant counts, the incremental
//! checksum, key-order iteration, peel-back order, the bare timestamp
//! index and the recent-update window.
//!
//! [`FlatStore`]: epidemic_db::FlatStore

use std::cmp::Reverse;
use std::collections::BTreeMap;

use epidemic_db::death::DeathStage;
use epidemic_db::{
    Checksum, Clock, Database, DeathCertificate, Entry, GcPolicy, GcStats, OfferOutcome, SimClock,
    SiteId, Timestamp,
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
    /// (borrowed) — both paths must agree with the spec. `value: None`
    /// offers a death certificate.
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

const LOCAL: SiteId = SiteId::new(0);

/// What one operation returned, compared between database and spec.
#[derive(Debug, PartialEq)]
enum Outcome {
    Stamped(Timestamp),
    Offered(OfferOutcome),
    Collected(GcStats),
    Nothing,
}

/// The entry an [`Op::Offer`] carries.
fn offered(value: Option<u16>, time: u64, site: u8) -> Entry<u16> {
    let at = Timestamp::new(time, SiteId::new(u32::from(site)));
    match value {
        Some(v) => Entry::live(v, at),
        None => Entry::dead(at),
    }
}

/// The replica under test plus the local clock driving it.
struct Harness {
    db: Database<u8, u16>,
    clock: SimClock,
}

impl Harness {
    fn new(site: SiteId) -> Self {
        Harness {
            db: Database::new(),
            clock: SimClock::new(site),
        }
    }

    fn step(&mut self, op: &Op) -> Outcome {
        match *op {
            Op::Update { key, value } => {
                Outcome::Stamped(self.db.update(key, value, &mut self.clock))
            }
            Op::Delete { key } => Outcome::Stamped(self.db.delete(&key, &mut self.clock)),
            Op::Retain { key, site } => Outcome::Stamped(self.db.delete_with_retention(
                &key,
                vec![LOCAL, SiteId::new(u32::from(site))],
                &mut self.clock,
            )),
            Op::Offer {
                key,
                value,
                time,
                site,
                by_ref,
            } => {
                let entry = offered(value, time, site);
                let now = Timestamp::new(self.clock.peek(), LOCAL);
                Outcome::Offered(if by_ref {
                    self.db.offer_ref(&key, &entry, now)
                } else {
                    self.db.offer(key, entry, now)
                })
            }
            Op::Advance { dt } => {
                let now = self.clock.peek();
                self.clock.advance_to(now + dt);
                Outcome::Nothing
            }
            Op::Gc { policy } => {
                Outcome::Collected(self.db.collect_garbage(LOCAL, self.clock.peek(), policy))
            }
        }
    }
}

/// The naive executable spec of a replica: §1.1's `ValueOf` map, §2.1's
/// dormant certificates, and nothing derived is stored.
struct Spec {
    main: BTreeMap<u8, Entry<u16>>,
    dormant: BTreeMap<u8, DeathCertificate>,
    clock: SimClock,
}

impl Spec {
    fn new() -> Self {
        Spec {
            main: BTreeMap::new(),
            dormant: BTreeMap::new(),
            clock: SimClock::new(LOCAL),
        }
    }

    /// §1.1 supersession: install iff strictly newer than what is held.
    fn apply(&mut self, key: u8, entry: Entry<u16>) -> OfferOutcome {
        match self.main.get(&key) {
            Some(held) if held.timestamp() == entry.timestamp() => OfferOutcome::AlreadyKnown,
            Some(held) if held.timestamp() > entry.timestamp() => OfferOutcome::Obsolete,
            _ => {
                self.main.insert(key, entry);
                OfferOutcome::Applied
            }
        }
    }

    /// §2.2–2.3: an obsolete copy awakens a dormant certificate (which
    /// moves back into the main store, activated now); a newer entry drops
    /// the certificate and is merged normally.
    fn offer(&mut self, key: u8, entry: Entry<u16>, now: Timestamp) -> OfferOutcome {
        if let Some(mut dc) = self.dormant.remove(&key) {
            if entry.timestamp() <= dc.deleted_at() {
                dc.reactivate(now);
                self.main.insert(key, Entry::Dead(dc));
                return OfferOutcome::AwakenedDormant;
            }
        }
        self.apply(key, entry)
    }

    /// §2.1: each main-store certificate is kept active, parked dormant or
    /// discarded; then dormant copies past `tau1 + tau2` expire.
    fn collect_garbage(&mut self, now: u64, policy: GcPolicy) -> GcStats {
        let mut stats = GcStats::default();
        let certificates: Vec<(u8, DeathCertificate)> = self
            .main
            .iter()
            .filter_map(|(k, e)| e.death_certificate().map(|dc| (*k, dc.clone())))
            .collect();
        for (key, dc) in certificates {
            let stage = match policy {
                GcPolicy::KeepForever => DeathStage::Active,
                GcPolicy::FixedThreshold { .. } if policy.discards(&dc, LOCAL, now) => {
                    DeathStage::Expired
                }
                GcPolicy::FixedThreshold { .. } => DeathStage::Active,
                GcPolicy::Dormant { tau1, tau2 } => dc.stage(LOCAL, now, tau1, tau2),
            };
            match stage {
                DeathStage::Active => stats.active += 1,
                DeathStage::Dormant => {
                    self.main.remove(&key);
                    self.dormant.insert(key, dc);
                    stats.dormant += 1;
                }
                DeathStage::Expired => {
                    self.main.remove(&key);
                    stats.discarded += 1;
                }
            }
        }
        if let GcPolicy::Dormant { tau1, tau2 } = policy {
            let before = self.dormant.len();
            self.dormant
                .retain(|_, dc| dc.stage(LOCAL, now, tau1, tau2) != DeathStage::Expired);
            stats.discarded += before - self.dormant.len();
            stats.dormant = self.dormant.len();
        }
        stats
    }

    fn step(&mut self, op: &Op) -> Outcome {
        match *op {
            Op::Update { key, value } => {
                let at = self.clock.now();
                self.main.insert(key, Entry::live(value, at));
                Outcome::Stamped(at)
            }
            Op::Delete { key } => {
                let at = self.clock.now();
                self.main.insert(key, Entry::dead(at));
                Outcome::Stamped(at)
            }
            Op::Retain { key, site } => {
                let at = self.clock.now();
                let retention = vec![LOCAL, SiteId::new(u32::from(site))];
                let dc = DeathCertificate::with_retention(at, retention);
                self.main.insert(key, Entry::Dead(dc));
                Outcome::Stamped(at)
            }
            Op::Offer {
                key,
                value,
                time,
                site,
                ..
            } => {
                let now = Timestamp::new(self.clock.peek(), LOCAL);
                Outcome::Offered(self.offer(key, offered(value, time, site), now))
            }
            Op::Advance { dt } => {
                let now = self.clock.peek();
                self.clock.advance_to(now + dt);
                Outcome::Nothing
            }
            Op::Gc { policy } => {
                Outcome::Collected(self.collect_garbage(self.clock.peek(), policy))
            }
        }
    }

    fn checksum(&self) -> Checksum {
        let mut sum = Checksum::new();
        for (k, e) in &self.main {
            sum.toggle(&(k, e));
        }
        sum
    }

    /// Entries sorted by `(timestamp, key)`, newest first: the §1.3
    /// peel-back order.
    fn newest_first(&self) -> Vec<(&u8, &Entry<u16>)> {
        let mut rows: Vec<_> = self.main.iter().collect();
        rows.sort_by_key(|&(k, e)| Reverse((e.timestamp(), *k)));
        rows
    }

    /// The §1.3 recent-update list: every entry at most `tau` old.
    fn recent(&self, now: u64, tau: u64) -> Vec<(&u8, &Entry<u16>)> {
        self.newest_first()
            .into_iter()
            .filter(|(_, e)| e.timestamp().age(now) <= tau)
            .collect()
    }
}

/// Full observational comparison between the database and the spec.
fn assert_matches_spec(h: &Harness, spec: &Spec) -> Result<(), TestCaseError> {
    let db = &h.db;
    let live = spec.main.values().filter(|e| !e.is_dead()).count();
    prop_assert_eq!(db.len(), spec.main.len());
    prop_assert_eq!(db.live_len(), live);
    prop_assert_eq!(db.dead_len(), spec.main.len() - live);
    prop_assert_eq!(db.dormant_len(), spec.dormant.len());
    prop_assert_eq!(db.checksum(), spec.checksum());
    prop_assert_eq!(db.recompute_checksum(), spec.checksum());
    prop_assert!(db.iter().eq(spec.main.iter()), "key-order walk diverged");
    let peel = spec.newest_first();
    prop_assert!(
        db.newest_first().eq(peel.iter().copied()),
        "peel-back order diverged"
    );
    prop_assert!(
        db.timestamp_index()
            .eq(peel.iter().map(|&(k, e)| (e.timestamp(), k))),
        "timestamp index diverged"
    );
    let now = h.clock.peek();
    for key in u8::MIN..=u8::MAX {
        prop_assert_eq!(db.entry(&key), spec.main.get(&key));
        prop_assert_eq!(db.get(&key), spec.main.get(&key).and_then(Entry::value));
        prop_assert_eq!(db.dormant_certificate(&key), spec.dormant.get(&key));
        let probe = Timestamp::new(now, LOCAL);
        let accepts = spec.dormant.contains_key(&key)
            || spec.main.get(&key).is_none_or(|e| probe > e.timestamp());
        prop_assert_eq!(
            db.would_accept(&key, probe),
            accepts,
            "would_accept({})",
            key
        );
    }
    for tau in [0, 5, 50, u64::MAX] {
        let recent = spec.recent(now, tau);
        prop_assert!(
            db.recent_index(now, tau)
                .eq(recent.iter().map(|&(k, e)| (e.timestamp(), k))),
            "recent index diverged at tau={}",
            tau
        );
        prop_assert!(
            db.recent_entries(now, tau).eq(recent.iter().copied()),
            "recent entries diverged at tau={}",
            tau
        );
    }
    Ok(())
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

proptest! {
    /// After every operation of a random history, the database and the
    /// naive spec agree on every observable: operation outcomes, entries,
    /// dormant certificates, checksums, and all three iteration orders.
    #[test]
    fn flat_store_matches_reference(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let mut db = Harness::new(LOCAL);
        let mut spec = Spec::new();
        for op in &ops {
            let a = db.step(op);
            let b = spec.step(op);
            prop_assert_eq!(a, b, "outcomes diverged on {:?}", op);
            assert_matches_spec(&db, &spec)?;
        }
    }

    /// Anti-entropy exchange between two replicas with independent
    /// histories converges to equal databases with equal checksums — the
    /// §1.1 goal.
    ///
    /// Offered entries are derived deterministically from their timestamp
    /// (see [`canonicalize`]) so a timestamp collision between the two
    /// histories can never manufacture two irreconcilable versions — the
    /// same guarantee unique real-world timestamps give the paper.
    #[test]
    fn two_replica_exchange_converges(
        ops_a in prop::collection::vec(op_strategy(), 0..60),
        ops_b in prop::collection::vec(op_strategy(), 0..60),
    ) {
        // b gets a disjoint client site id so update timestamps never
        // collide across replicas; remote offers use sites 2+.
        let mut a = Harness::new(LOCAL);
        let mut b = Harness::new(SiteId::new(1));
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
