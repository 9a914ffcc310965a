//! Word-level boolean kernels.
//!
//! All functions treat a `&[u64]` as a little-endian bit string: bit `i`
//! lives in `words[i / 64]` at position `i % 64`.  Slices of different
//! lengths are handled by implicit zero-extension — a missing word behaves
//! as `0u64` — which matches the semantics of a lazily grown bit-slice where
//! trailing rows simply have not had any bit set yet.
//!
//! The heavy entry points (`and_assign`, `count_ones`, `and_all_count`,
//! `and_count_many`) delegate to the tiered blocked kernels in
//! [`crate::ops_simd`]; this module owns the zero-extension contract and
//! the small helpers.

use crate::ops_simd;

/// Returns the `i`-th word of `words`, or `0` if the slice is too short.
#[inline(always)]
pub fn word_or_zero(words: &[u64], i: usize) -> u64 {
    words.get(i).copied().unwrap_or(0)
}

/// Counts the set bits in `words`.
#[inline]
pub fn count_ones(words: &[u64]) -> usize {
    ops_simd::popcount(words)
}

/// `dst &= src`, zero-extending `src` if it is shorter than `dst`.
pub fn and_assign(dst: &mut [u64], src: &[u64]) {
    let n = src.len().min(dst.len());
    let (head, tail) = dst.split_at_mut(n);
    ops_simd::and_words(head, &src[..n]);
    tail.fill(0);
}

/// `dst |= src`. `src` longer than `dst` is a caller bug; the excess is
/// ignored (the destination defines the universe size).
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    let n = src.len().min(dst.len());
    for i in 0..n {
        dst[i] |= src[i];
    }
}

/// `dst &= !src`, zero-extending `src`.
pub fn and_not_assign(dst: &mut [u64], src: &[u64]) {
    let n = src.len().min(dst.len());
    for i in 0..n {
        dst[i] &= !src[i];
    }
}

/// Popcount of `a & b` without materialising the intermediate.
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    ops_simd::and_all_count_bounded(&[a, b], a.len().min(b.len()), None)
}

/// Fused multi-way AND + popcount: returns `popcount(srcs[0] & … & srcs[k-1])`
/// over the first `words` words, without writing an output vector.
///
/// With an empty `srcs` the result is the popcount of the implicit all-ones
/// universe, i.e. `words * 64`; callers that need "count of rows" semantics
/// should special-case the empty query before calling in.
pub fn and_all_count(srcs: &[&[u64]], words: usize) -> usize {
    ops_simd::and_all_count_bounded(srcs, words, None)
}

/// Fused multi-way AND + popcount with early exit against a threshold `tau`.
///
/// Identical to [`and_all_count`] except that counting stops as soon as the
/// running upper bound (bits counted so far plus one bit per remaining row)
/// provably drops below `tau`.  The return value is:
///
/// * exact whenever it is `≥ tau`;
/// * otherwise an **upper bound** on `and_all_count(srcs, words)` — it
///   never undercounts, so a caller that only tests `count < tau` (the
///   BBS filter step, whose estimates already only overcount by Lemmas
///   1–4) gets exactly the same accept/prune decisions as with the exact
///   kernel.
pub fn and_count_many(srcs: &[&[u64]], words: usize, tau: usize) -> usize {
    ops_simd::and_all_count_bounded(srcs, words, Some(tau))
}

/// Iterator over the indices of set bits in a word slice.
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    limit: usize,
}

impl<'a> OnesIter<'a> {
    /// Creates an iterator over set bits in `words`, yielding only indices
    /// `< limit` (the logical bit length).
    pub fn new(words: &'a [u64], limit: usize) -> Self {
        let current = words.first().copied().unwrap_or(0);
        OnesIter {
            words,
            word_idx: 0,
            current,
            limit,
        }
    }
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                let idx = self.word_idx * 64 + tz;
                self.current &= self.current - 1;
                if idx >= self.limit {
                    return None;
                }
                return Some(idx);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() || self.word_idx * 64 >= self.limit {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_or_zero_in_and_out_of_range() {
        let w = [1u64, 2, 3];
        assert_eq!(word_or_zero(&w, 0), 1);
        assert_eq!(word_or_zero(&w, 2), 3);
        assert_eq!(word_or_zero(&w, 3), 0);
        assert_eq!(word_or_zero(&[], 0), 0);
    }

    #[test]
    fn count_ones_basic() {
        assert_eq!(count_ones(&[]), 0);
        assert_eq!(count_ones(&[0]), 0);
        assert_eq!(count_ones(&[u64::MAX]), 64);
        assert_eq!(count_ones(&[0b1011, 0b1]), 4);
    }

    #[test]
    fn and_assign_equal_len() {
        let mut a = [0b1100u64, 0b1111];
        and_assign(&mut a, &[0b1010, 0b0101]);
        assert_eq!(a, [0b1000, 0b0101]);
    }

    #[test]
    fn and_assign_short_src_zero_extends() {
        let mut a = [u64::MAX, u64::MAX, u64::MAX];
        and_assign(&mut a, &[0b1]);
        assert_eq!(a, [0b1, 0, 0]);
    }

    #[test]
    fn or_assign_basic() {
        let mut a = [0b1000u64, 0];
        or_assign(&mut a, &[0b0011, 0b1]);
        assert_eq!(a, [0b1011, 0b1]);
    }

    #[test]
    fn and_not_assign_basic() {
        let mut a = [0b1111u64];
        and_not_assign(&mut a, &[0b0101]);
        assert_eq!(a, [0b1010]);
    }

    #[test]
    fn and_count_matches_materialised() {
        let a = [0xF0F0u64, 0xFF];
        let b = [0xFF00u64, 0x0F];
        assert_eq!(and_count(&a, &b), (0xF000u64.count_ones() + 0x0Fu64.count_ones()) as usize);
    }

    #[test]
    fn and_all_count_zero_one_two_many() {
        let a = [0b1111u64];
        let b = [0b1010u64];
        let c = [0b0110u64];
        assert_eq!(and_all_count(&[], 1), 64);
        assert_eq!(and_all_count(&[&a], 1), 4);
        assert_eq!(and_all_count(&[&a, &b], 1), 2);
        assert_eq!(and_all_count(&[&a, &b, &c], 1), 1); // 0b0010
    }

    #[test]
    fn and_all_count_respects_word_limit() {
        let a = [u64::MAX, u64::MAX];
        assert_eq!(and_all_count(&[&a], 1), 64);
        assert_eq!(and_all_count(&[&a], 2), 128);
    }

    #[test]
    fn and_all_count_short_operand_zero_extends() {
        let a = [u64::MAX, u64::MAX];
        let b = [u64::MAX];
        // The second word of b is implicitly 0, so only word 0 contributes.
        assert_eq!(and_all_count(&[&a, &b], 2), 64);
        assert_eq!(and_all_count(&[&a, &b, &a], 2), 64);
    }

    #[test]
    fn and_count_many_exact_at_or_above_tau() {
        let a = [u64::MAX; 40];
        let b = [0xAAAA_AAAA_AAAA_AAAAu64; 40];
        let exact = and_all_count(&[&a, &b], 40);
        assert_eq!(exact, 40 * 32);
        // tau below the exact count: result must be the exact value.
        assert_eq!(and_count_many(&[&a, &b], 40, exact), exact);
        assert_eq!(and_count_many(&[&a, &b], 40, 1), exact);
        // Unreachable tau: any early exit must still be an upper bound.
        let est = and_count_many(&[&a, &b], 40, usize::MAX);
        assert!(est >= exact);
    }

    #[test]
    fn and_count_many_zero_extends_like_exact() {
        let a = [u64::MAX, u64::MAX, u64::MAX];
        let b = [u64::MAX];
        let got = and_count_many(&[&a, &b], 3, 1);
        // Exact count is 64; tau=1 is below it, so the result is exact.
        assert_eq!(got, 64);
    }

    #[test]
    fn ones_iter_walks_all_set_bits() {
        let words = [0b1001u64, 0b1];
        let got: Vec<usize> = OnesIter::new(&words, 128).collect();
        assert_eq!(got, vec![0, 3, 64]);
    }

    #[test]
    fn ones_iter_respects_limit() {
        let words = [u64::MAX];
        let got: Vec<usize> = OnesIter::new(&words, 3).collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn ones_iter_empty() {
        assert_eq!(OnesIter::new(&[], 100).count(), 0);
        assert_eq!(OnesIter::new(&[0, 0, 0], 192).count(), 0);
    }
}
