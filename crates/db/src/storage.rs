//! The storage seam behind [`Database`](crate::Database): a [`Storage`]
//! trait with two backends.
//!
//! [`Database`](crate::Database) owns the protocol-visible invariants — the
//! incremental [`Checksum`], the live-entry count and the dormant
//! death-certificate side store — and delegates the main-store layout to a
//! backend:
//!
//! * [`FlatStore`](crate::FlatStore) — the store. One `Vec` of
//!   `(key, entry)` rows sorted by `(timestamp, key)`, with the
//!   peel-back/recent order *derived* from the row order instead of
//!   maintained in a second tree. One heap block per single-entry site.
//! * [`BTreeBackend`] — `BTreeMap<K, Entry<V>>` plus a [`PeelBackIndex`],
//!   the historical layout, kept as the reference implementation. Only an
//!   explicit [`Backend::BTree`] selects it.
//!
//! Both backends are observationally equivalent: every operation returns
//! the same outcome, every iterator yields the same sequence, and the
//! incrementally maintained checksum agrees toggle-for-toggle (pinned by
//! the `flat_store_reference` differential suite). The backend choice can
//! therefore never change simulation output, only its speed and footprint.
//!
//! Mutating operations receive an [`Aux`] view of the checksum and live
//! count so each backend updates them inline, exactly where the historical
//! single-probe code did — the seam adds no extra tree walks.

use std::collections::BTreeMap;
use std::hash::Hash;

use crate::checksum::Checksum;
use crate::item::{ApplyOutcome, Entry};
use crate::peelback::PeelBackIndex;
use crate::timestamp::Timestamp;

/// Which main-store layout a [`Database`](crate::Database) uses.
///
/// The default, and the layout every constructor without an explicit
/// backend builds, is [`Backend::Flat`]. [`Backend::BTree`] selects the
/// reference implementation, for differential tests and side-by-side
/// comparisons in one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// `BTreeMap` entries plus a peel-back tree (the reference layout).
    BTree,
    /// Timestamp-sorted rows ([`FlatStore`](crate::FlatStore)).
    #[default]
    Flat,
}

/// Mutable views of the [`Database`](crate::Database)-owned invariants a
/// backend maintains inline while mutating the main store.
///
/// Threading these into each call (rather than having backends own them)
/// keeps checksum/live bookkeeping in the exact spots the historical
/// single-probe code touched them, so no backend pays a second lookup to
/// keep the auxiliary state consistent.
#[derive(Debug)]
pub struct Aux<'a> {
    /// The order-independent checksum over all `(key, entry)` pairs (§1.3).
    pub checksum: &'a mut Checksum,
    /// Number of live (non-death-certificate) entries.
    pub live: &'a mut usize,
}

/// The operations a main-store layout must provide to back a
/// [`Database`](crate::Database).
///
/// Iteration (key order, peel-back order, timestamp index) is exposed as
/// inherent methods on each backend rather than trait items: the database
/// dispatches over a closed backend enum, and concrete iterator types keep
/// the hot walks monomorphic.
pub trait Storage<K, V>
where
    K: Ord + Clone + Hash,
    V: Hash,
{
    /// Number of stored entries (live values plus death certificates).
    fn len(&self) -> usize;

    /// Whether the store holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry for `key`, if present.
    fn get(&self, key: &K) -> Option<&Entry<V>>;

    /// Merges an owned entry under the §1.1 supersession rule.
    fn apply(&mut self, key: K, entry: Entry<V>, aux: Aux<'_>) -> ApplyOutcome;

    /// [`Storage::apply`] from borrowed data: clones the entry (and key)
    /// only when the offer actually supersedes.
    fn apply_ref(&mut self, key: &K, entry: &Entry<V>, aux: Aux<'_>) -> ApplyOutcome
    where
        V: Clone;

    /// Installs an entry unconditionally (client updates and deletions).
    fn install(&mut self, key: K, entry: Entry<V>, aux: Aux<'_>);

    /// Removes an entry outright (garbage collection), returning it.
    fn remove(&mut self, key: &K, aux: Aux<'_>) -> Option<Entry<V>>;
}

/// The reference backend: `BTreeMap` entries plus a [`PeelBackIndex`],
/// exactly the layout the database used before the storage seam existed.
#[derive(Debug, Clone, Default)]
pub struct BTreeBackend<K, V> {
    entries: BTreeMap<K, Entry<V>>,
    peel: PeelBackIndex<K>,
}

impl<K, V> BTreeBackend<K, V>
where
    K: Ord + Clone + Hash,
    V: Hash,
{
    /// Creates an empty backend.
    pub fn new() -> Self {
        BTreeBackend {
            entries: BTreeMap::new(),
            peel: PeelBackIndex::new(),
        }
    }

    /// Overwrites an occupied slot in place, maintaining checksum,
    /// peel-back index and live count. The caller has already decided the
    /// replacement (supersession or unconditional install); keeping the
    /// slot borrowed avoids a second tree walk to re-locate the key.
    fn replace_slot(
        slot: &mut Entry<V>,
        key: &K,
        new: Entry<V>,
        peel: &mut PeelBackIndex<K>,
        aux: Aux<'_>,
    ) {
        aux.checksum.toggle(&(key, &*slot));
        peel.remove(slot.timestamp(), key);
        if !slot.is_dead() {
            *aux.live -= 1;
        }
        *slot = new;
        aux.checksum.toggle(&(key, &*slot));
        peel.insert(slot.timestamp(), key.clone());
        if !slot.is_dead() {
            *aux.live += 1;
        }
    }

    /// Iterates `(key, entry)` pairs in key order.
    pub fn iter(&self) -> std::collections::btree_map::Iter<'_, K, Entry<V>> {
        self.entries.iter()
    }

    /// Iterates entries in reverse `(timestamp, key)` order — the §1.3
    /// peel-back order, straight off the inverted index.
    pub fn newest_first(&self) -> impl Iterator<Item = (&K, &Entry<V>)> {
        self.peel.newest_first().map(move |(_, k)| {
            let entry = self.entries.get(k).expect("peel index is consistent");
            (k, entry)
        })
    }

    /// The inverted timestamp index as bare `(timestamp, key)` pairs,
    /// newest first.
    pub fn timestamp_index(&self) -> impl Iterator<Item = (Timestamp, &K)> {
        self.peel.newest_first()
    }
}

impl<K, V> Storage<K, V> for BTreeBackend<K, V>
where
    K: Ord + Clone + Hash,
    V: Hash,
{
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn get(&self, key: &K) -> Option<&Entry<V>> {
        self.entries.get(key)
    }

    fn apply(&mut self, key: K, entry: Entry<V>, aux: Aux<'_>) -> ApplyOutcome {
        match self.entries.get_mut(&key) {
            Some(current) => {
                if !entry.supersedes(current) {
                    return if current.timestamp() == entry.timestamp() {
                        ApplyOutcome::AlreadyKnown
                    } else {
                        ApplyOutcome::Obsolete
                    };
                }
                Self::replace_slot(current, &key, entry, &mut self.peel, aux);
                ApplyOutcome::Applied
            }
            None => {
                aux.checksum.toggle(&(&key, &entry));
                self.peel.insert(entry.timestamp(), key.clone());
                if !entry.is_dead() {
                    *aux.live += 1;
                }
                self.entries.insert(key, entry);
                ApplyOutcome::Applied
            }
        }
    }

    fn apply_ref(&mut self, key: &K, entry: &Entry<V>, aux: Aux<'_>) -> ApplyOutcome
    where
        V: Clone,
    {
        match self.entries.get_mut(key) {
            Some(current) => {
                if !entry.supersedes(current) {
                    return if current.timestamp() == entry.timestamp() {
                        ApplyOutcome::AlreadyKnown
                    } else {
                        ApplyOutcome::Obsolete
                    };
                }
                Self::replace_slot(current, key, entry.clone(), &mut self.peel, aux);
                ApplyOutcome::Applied
            }
            None => {
                aux.checksum.toggle(&(key, entry));
                self.peel.insert(entry.timestamp(), key.clone());
                if !entry.is_dead() {
                    *aux.live += 1;
                }
                self.entries.insert(key.clone(), entry.clone());
                ApplyOutcome::Applied
            }
        }
    }

    fn install(&mut self, key: K, entry: Entry<V>, aux: Aux<'_>) {
        match self.entries.get_mut(&key) {
            Some(current) => Self::replace_slot(current, &key, entry, &mut self.peel, aux),
            None => {
                aux.checksum.toggle(&(&key, &entry));
                self.peel.insert(entry.timestamp(), key.clone());
                if !entry.is_dead() {
                    *aux.live += 1;
                }
                self.entries.insert(key, entry);
            }
        }
    }

    fn remove(&mut self, key: &K, aux: Aux<'_>) -> Option<Entry<V>> {
        let entry = self.entries.remove(key)?;
        aux.checksum.toggle(&(key, &entry));
        self.peel.remove(entry.timestamp(), key);
        if !entry.is_dead() {
            *aux.live -= 1;
        }
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backend_is_flat() {
        assert_eq!(Backend::default(), Backend::Flat);
    }
}
