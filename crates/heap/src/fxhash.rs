//! A hand-rolled FxHash-style hasher for hot-path tables.
//!
//! `std`'s default SipHash is DoS-resistant but costs ~1ns+ per word —
//! real money when the interpreter hits the intern table, monitor table,
//! and class/vslot lookups on every other instruction. This is the
//! multiply-rotate hash Firefox and rustc use: not DoS-resistant, which is
//! fine here (all keys come from guest programs we load ourselves, and
//! every iteration-order-sensitive path in this workspace sorts before it
//! observes a map — the GC sorts its roots, the scheduler sorts parked
//! threads — so hash order can never leak into a golden trace).
//!
//! Hand-rolled on purpose: this workspace takes no external dependencies
//! for infrastructure (see DESIGN.md §16).

use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, the multiplier rustc's FxHash uses.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// The Firefox/rustc multiply-rotate hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut bytes = bytes;
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut buf = [0u8; 4];
            buf.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(buf)));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_stable_and_distinct() {
        let hash = |s: &str| {
            let mut h = FxHasher::default();
            h.write(s.as_bytes());
            h.finish()
        };
        // Deterministic across calls (no per-process random state).
        assert_eq!(hash("Main.main"), hash("Main.main"));
        assert_ne!(hash("Main.main"), hash("Main.run"));
        assert_ne!(hash("a"), hash("b"));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(format!("key{i}"), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&format!("key{i}")), Some(&i));
        }
    }
}
