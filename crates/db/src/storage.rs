//! The seam between [`Database`](crate::Database) and its main store,
//! [`FlatStore`](crate::FlatStore).
//!
//! [`Database`](crate::Database) owns the protocol-visible invariants — the
//! incremental [`Checksum`], the live-entry count and the dormant
//! death-certificate side store — while the store owns the row layout.
//! Mutating store operations receive an `Aux` view of the checksum and
//! live count so the store updates them inline, in the same probe that
//! locates the row.
//!
//! [`Backend`] is a vestigial one-variant selector; see its docs.

use crate::checksum::Checksum;

/// The main-store layout. There is exactly one, [`Backend::Flat`].
///
/// This type exists only because the `perfbench/` harness calls
/// `epidemic_sim::megascale::reference::run_{uniform,scale_free}(…, Backend::Flat)`,
/// and both functions ignore the argument (`_: Backend`). Drop it together
/// with that argument in a change to the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Timestamp-sorted rows ([`FlatStore`](crate::FlatStore)).
    #[default]
    Flat,
}

/// Mutable views of the [`Database`](crate::Database)-owned invariants the
/// store maintains inline while mutating its rows.
#[derive(Debug)]
pub(crate) struct Aux<'a> {
    /// The order-independent checksum over all `(key, entry)` pairs (§1.3).
    pub(crate) checksum: &'a mut Checksum,
    /// Number of live (non-death-certificate) entries.
    pub(crate) live: &'a mut usize,
}
