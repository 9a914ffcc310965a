//! Bit-level substrate for the BBS (Bit-Sliced Bloom-filtered Signature file)
//! frequent-pattern index.
//!
//! The paper's `CountItemSet` primitive is, at bottom, "AND a handful of long
//! bit columns together and popcount the result".  This crate provides the
//! three data structures that make that operation cheap and safe:
//!
//! * [`BitVec`] — a growable, dense, word-packed bit vector with bulk boolean
//!   operations and set-bit iteration.
//! * [`Signature`] — a fixed-width (`m`-bit) vector representing one
//!   transaction's (or one query itemset's) Bloom filter.
//! * [`SliceMatrix`] — the transposed store: `m` bit-slices, where slice `j`
//!   holds bit `j` of every row's signature.  Appending a row touches only
//!   the slices whose bits are set, so insertion cost is proportional to the
//!   number of set bits, not to `m`.
//!
//! All heavy loops run over `u64` words (see [`ops`]), and the multi-way
//! AND-and-count kernels avoid materialising intermediates where possible.
//! The hot kernels are tiered (see [`ops_simd`]): an explicit AVX2 path
//! behind runtime feature detection, an autovectorizable blocked scalar
//! path, and a straight-line portable reference.
//!
//! `unsafe` is denied crate-wide and allowed only inside [`ops_simd`],
//! where it is confined to `std::arch` intrinsics guarded by
//! `is_x86_feature_detected!`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bitvec;
pub mod matrix;
pub mod ops;
pub mod ops_simd;
pub mod signature;

pub use bitvec::BitVec;
pub use matrix::SliceMatrix;
pub use signature::Signature;

/// Number of bits in one storage word.
pub const WORD_BITS: usize = u64::BITS as usize;

/// `u64` words per 4 KiB page: the chunk a depth-first cursor ANDs at a
/// time, on disk one slice-file page.
pub const PAGE_WORDS: usize = 512;

/// Number of `u64` words needed to hold `bits` bits.
#[inline]
pub const fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}
