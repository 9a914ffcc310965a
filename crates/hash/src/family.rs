//! The one constructor from a family's identity string to its functions.
//!
//! A deployment records the identity of the family its rows were hashed
//! with ([`ItemHasher::id`]: `md5/K`, `mod/1`) beside their width, and a
//! shard reports it to a coordinator; every reader that must hash an item
//! to the positions the writer set rebuilds the family here.  The string
//! is outside input — it comes from a file header or off the wire — so
//! every malformed one is a typed [`FamilyError`] naming it, never a
//! panic or an unbounded allocation.

use crate::bloom::{ItemHasher, Md5BloomHasher, ModuloHasher};
use std::fmt;
use std::sync::Arc;

/// The largest `k` an `md5/K` identity may name.  The paper uses four;
/// far past any useful Bloom parameter, and small enough that a hostile
/// identity cannot make every position lookup allocate without bound.
pub const MAX_K: usize = 64;

/// Why an identity string names no family this crate can build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FamilyError {
    /// `md5/0`: a Bloom family needs at least one function.
    ZeroK(String),
    /// `md5/K` with `K` above [`MAX_K`].
    KTooLarge(String),
    /// Any other string.
    Unknown(String),
}

impl fmt::Display for FamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilyError::ZeroK(id) => {
                write!(f, "hash family {id:?} has no hash functions (k = 0)")
            }
            FamilyError::KTooLarge(id) => {
                write!(
                    f,
                    "hash family {id:?} names more than {MAX_K} hash functions"
                )
            }
            FamilyError::Unknown(id) => write!(
                f,
                "unknown hash family {id:?} (expected md5/K with 1 <= K <= {MAX_K}, or mod/1)"
            ),
        }
    }
}

impl std::error::Error for FamilyError {}

/// Builds the hash family an identity string names: `md5/K` is
/// [`Md5BloomHasher`] with `K` functions, `mod/1` is [`ModuloHasher`].
/// The built family reports exactly `id` as its own identity.
pub fn hasher_for_id(id: &str) -> Result<Arc<dyn ItemHasher>, FamilyError> {
    if id == "mod/1" {
        return Ok(Arc::new(ModuloHasher));
    }
    let k = id
        .strip_prefix("md5/")
        .filter(|k| !k.is_empty() && k.bytes().all(|b| b.is_ascii_digit()))
        .filter(|k| k.len() == 1 || !k.starts_with('0'))
        .ok_or_else(|| FamilyError::Unknown(id.to_string()))?;
    match k.parse::<usize>() {
        Ok(0) => Err(FamilyError::ZeroK(id.to_string())),
        Ok(k) if k <= MAX_K => Ok(Arc::new(Md5BloomHasher::new(k))),
        _ => Err(FamilyError::KTooLarge(id.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_known_identity_round_trips() {
        for id in ["mod/1", "md5/1", "md5/3", "md5/4", "md5/64"] {
            assert_eq!(hasher_for_id(id).expect(id).id(), id);
        }
    }

    #[test]
    fn md5_zero_is_refused_by_name() {
        assert_eq!(
            hasher_for_id("md5/0").err(),
            Some(FamilyError::ZeroK("md5/0".into()))
        );
    }

    #[test]
    fn a_k_above_the_bound_is_refused_by_name() {
        for id in ["md5/65", "md5/100000000", "md5/99999999999999999999999"] {
            let err = hasher_for_id(id).err().expect(id);
            assert_eq!(err, FamilyError::KTooLarge(id.into()));
            assert!(err.to_string().contains(id), "{err}");
        }
    }

    #[test]
    fn an_unknown_family_is_refused_by_name() {
        for id in [
            "", "bloom/2", "sha1/4", "mod/2", "md5/", "md5/-1", "md5/ 4", "md5/04",
        ] {
            let err = hasher_for_id(id).err().expect(id);
            assert_eq!(err, FamilyError::Unknown(id.into()));
            assert!(err.to_string().contains(&format!("{id:?}")), "{err}");
        }
    }
}
