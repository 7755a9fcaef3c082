//! Deterministic FNV-1a hashing for cache keys.
//!
//! The unit cache is keyed entirely by content hashes, so the hasher must
//! be deterministic across runs of the same binary — `std`'s default
//! `SipHasher` is randomly keyed per process and unusable here. This is
//! the workspace's one FNV-1a: the session store's source keys and journal
//! checksums (`tbaa_server::session::content_hash`) and the router's ring
//! go through it too. It is a [`std::hash::Hasher`], so unit hashing can
//! fold integers and strings in directly.
//!
//! The integer `write_*` methods feed native-endian bytes, which is fine
//! for unit keys: they never leave the process. Values that do (journal
//! checksums) hash plain bytes.

use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a [`Hasher`].
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl FnvHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds a string followed by a separator byte, so that adjacent
    /// strings hash unambiguously (`"ab","c"` ≠ `"a","bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write_u8(0xFF);
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv(bytes: &[u8]) -> u64 {
        let mut h = FnvHasher::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_and_content_sensitive() {
        assert_eq!(fnv(b"abc"), fnv(b"abc"));
        assert_ne!(fnv(b"abc"), fnv(b"abd"));
    }

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn str_separator_disambiguates() {
        let mut a = FnvHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = FnvHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
