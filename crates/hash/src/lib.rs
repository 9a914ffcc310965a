//! Hashing substrate for the BBS index: a from-scratch MD5 (RFC 1321) and
//! the Bloom-filter hash family the paper derives from it.
//!
//! See [`md5`](mod@md5) for the digest implementation and [`bloom`] for the
//! item-to-bit-position mapping ([`ItemHasher`] and its two implementations,
//! [`Md5BloomHasher`] — the paper's scheme — and [`ModuloHasher`] — the
//! running example / exactness limit), and [`family`] for the one way back
//! from a family's recorded identity to its functions ([`hasher_for_id`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bloom;
pub mod family;
pub mod md5;

pub use bloom::{ItemHasher, Md5BloomHasher, ModuloHasher};
pub use family::{hasher_for_id, FamilyError, MAX_K};
pub use md5::{md5, Digest, Md5};
