//! A stable output digest for benchmark correctness checks.

use std::hash::Hasher;

/// FNV-1a as a [`Hasher`]: the digest `perfbench` pins its workload outputs
/// with. `DefaultHasher` is only stable within one std build, which is
/// useless for a digest compared across runs and commits.
#[derive(Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl FnvHasher {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        FnvHasher::default()
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_hasher_matches_known_vectors() {
        assert_eq!(FnvHasher::new().finish(), 0xcbf2_9ce4_8422_2325, "offset basis");
        let mut h = FnvHasher::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c, "FNV-1a of \"a\"");
    }
}
