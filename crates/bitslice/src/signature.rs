//! Fixed-width Bloom-filter signatures.

use crate::bitvec::BitVec;
use crate::ops::OnesIter;
use std::fmt;

/// An `m`-bit Bloom-filter signature for one transaction or one query
/// itemset.
///
/// A signature is just a short [`BitVec`] with a fixed width, but the wrapper
/// makes the intent explicit and provides the two operations the mining
/// algorithms actually use:
///
/// * [`Signature::merge`] — superimpose another signature (used when a query
///   itemset grows by one item during filter enumeration);
/// * [`Signature::covers`] / [`Signature::is_covered_by`] — the containment
///   test of the paper's Lemma 2: if any query bit is set where the
///   transaction bit is clear, the transaction cannot contain the itemset.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    bits: BitVec,
}

impl Signature {
    /// Creates an all-zero signature of `width` bits.
    pub fn zeros(width: usize) -> Self {
        Signature {
            bits: BitVec::zeros(width),
        }
    }

    /// Builds a signature of `width` bits with the given positions set.
    ///
    /// # Panics
    /// Panics if any position is `>= width`.
    pub fn from_positions(width: usize, positions: &[usize]) -> Self {
        Signature {
            bits: BitVec::from_indices(width, positions),
        }
    }

    /// Signature width in bits (the paper's `m`).
    #[inline]
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Sets one bit position.
    ///
    /// # Panics
    /// Panics if `pos >= width`.
    #[inline]
    pub fn set(&mut self, pos: usize) {
        self.bits.set(pos);
    }

    /// Returns whether a bit position is set.
    #[inline]
    pub fn get(&self, pos: usize) -> bool {
        self.bits.get(pos)
    }

    /// Number of set bits (the signature's weight).
    #[inline]
    pub fn weight(&self) -> usize {
        self.bits.count_ones()
    }

    /// True if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.weight() == 0
    }

    /// Superimposes (`OR`s) `other` into `self`.
    ///
    /// # Panics
    /// Panics if the widths differ.
    pub fn merge(&mut self, other: &Signature) {
        assert_eq!(
            self.width(),
            other.width(),
            "signature width mismatch in merge"
        );
        self.bits.or_assign(&other.bits);
    }

    /// True if every bit set in `self` is also set in `other`.
    ///
    /// When `self` is a query signature and `other` a transaction signature,
    /// `self.is_covered_by(other)` is the necessary condition for the
    /// transaction to contain the query itemset (Lemma 2).
    pub fn is_covered_by(&self, other: &Signature) -> bool {
        self.bits.is_subset_of(&other.bits)
    }

    /// True if `self` covers `other` (i.e. `other ⊆ self`).
    pub fn covers(&self, other: &Signature) -> bool {
        other.is_covered_by(self)
    }

    /// Iterator over set bit positions, ascending.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        self.bits.iter_ones()
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature[{}b:", self.width())?;
        let mut first = true;
        for p in self.iter_ones() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, " {p}")?;
            first = false;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_weight() {
        let s = Signature::from_positions(16, &[0, 7, 15]);
        assert_eq!(s.width(), 16);
        assert_eq!(s.weight(), 3);
        assert!(s.get(0) && s.get(7) && s.get(15));
        assert!(!s.get(1));
    }

    #[test]
    fn duplicate_positions_collapse() {
        let s = Signature::from_positions(8, &[3, 3, 3]);
        assert_eq!(s.weight(), 1);
    }

    #[test]
    fn merge_superimposes() {
        let mut a = Signature::from_positions(8, &[0, 1]);
        let b = Signature::from_positions(8, &[1, 2]);
        a.merge(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_width_mismatch_panics() {
        let mut a = Signature::zeros(8);
        a.merge(&Signature::zeros(16));
    }

    #[test]
    fn coverage_is_subset_semantics() {
        let query = Signature::from_positions(8, &[1, 3]);
        let txn = Signature::from_positions(8, &[0, 1, 3, 5]);
        assert!(query.is_covered_by(&txn));
        assert!(txn.covers(&query));
        assert!(!txn.is_covered_by(&query));
        assert!(Signature::zeros(8).is_covered_by(&txn));
    }

    #[test]
    fn paper_running_example_vectors() {
        // Table 1 of the paper: h(x) = x mod 8, m = 8.
        // Transaction 100 = {0,1,2,3,4,5,14,15} -> all 8 bits set.
        let t100 = Signature::from_positions(8, &[0, 1, 2, 3, 4, 5, 14 % 8, 15 % 8]);
        assert_eq!(t100.weight(), 8);
        // Transaction 300 = {1,5,14,15} -> bits {1,5,6,7}.
        let t300 = Signature::from_positions(8, &[1, 5, 14 % 8, 15 % 8]);
        assert_eq!(t300.iter_ones().collect::<Vec<_>>(), vec![1, 5, 6, 7]);
        assert!(t300.is_covered_by(&t100));
    }

    proptest! {
        #[test]
        fn prop_merge_then_cover(
            a in proptest::collection::vec(0usize..64, 0..10),
            b in proptest::collection::vec(0usize..64, 0..10),
        ) {
            let sa = Signature::from_positions(64, &a);
            let sb = Signature::from_positions(64, &b);
            let mut merged = sa.clone();
            merged.merge(&sb);
            // A merged signature covers both constituents.
            prop_assert!(sa.is_covered_by(&merged));
            prop_assert!(sb.is_covered_by(&merged));
            // And anything covering both constituents covers nothing less
            // than the merge.
            prop_assert!(merged.is_covered_by(&merged));
        }
    }
}
