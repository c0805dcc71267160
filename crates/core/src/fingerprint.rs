//! Cheap, stable structural fingerprints for caching.
//!
//! The runtime keys its evaluator pool, request coalescing and response
//! cache by hashes of request content, and the search keys its within-run
//! memo by genome hashes. This module provides the hashing machinery:
//!
//! * [`StableHasher`] — a 64-bit FNV-1a hasher whose output is a pure
//!   function of the written bytes, independent of platform, process or
//!   `std::collections` hash seeds (unlike `DefaultHasher`),
//! * [`fingerprint_serialized`] — hashes any [`serde::Serialize`] type
//!   through its value-model representation, giving every model/hardware
//!   type in the workspace a fingerprint for free,
//! * [`Fingerprint`] — a trait for hand-rolled, allocation-free
//!   implementations. [`MappingConfig`] implements it for callers keying
//!   caches on decoded configurations; the search's memo keys on the
//!   cheaper `Genome::fingerprint` (defined in `mnc_optim` with the same
//!   [`StableHasher`]) since genomes exist before decoding.

use crate::config::MappingConfig;
use serde::{Serialize, Value};

/// A 64-bit FNV-1a hasher with stable, platform-independent output.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// Creates a hasher in the canonical initial state.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.state ^= u64::from(*byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Feeds a `usize` (as `u64`, so 32/64-bit builds agree).
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// Feeds an `f64` by its bit pattern (exact, no rounding).
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// Feeds a boolean.
    pub fn write_bool(&mut self, value: bool) {
        self.write_bytes(&[u8::from(value)]);
    }

    /// Feeds a string (length-prefixed so concatenations can't collide).
    pub fn write_str(&mut self, value: &str) {
        self.write_usize(value.len());
        self.write_bytes(value.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

/// Types with a cheap structural fingerprint.
pub trait Fingerprint {
    /// Feeds the structural content into `hasher`.
    fn fingerprint_into(&self, hasher: &mut StableHasher);

    /// The standalone 64-bit fingerprint.
    fn fingerprint(&self) -> u64 {
        let mut hasher = StableHasher::new();
        self.fingerprint_into(&mut hasher);
        hasher.finish()
    }
}

/// Hashes any serializable value through its value-model representation.
///
/// This is the slow-but-universal path: one allocation tree per call. Use
/// it for things fingerprinted once per request (platforms, constraints,
/// whole evaluators), not per cache lookup.
pub fn fingerprint_serialized<T: Serialize + ?Sized>(value: &T) -> u64 {
    let mut hasher = StableHasher::new();
    hash_value(&value.to_value(), &mut hasher);
    hasher.finish()
}

fn hash_value(value: &Value, hasher: &mut StableHasher) {
    match value {
        Value::Null => hasher.write_bytes(b"n"),
        Value::Bool(b) => {
            hasher.write_bytes(b"b");
            hasher.write_bool(*b);
        }
        Value::Int(n) => {
            hasher.write_bytes(b"i");
            hasher.write_u64(*n as u64);
        }
        Value::UInt(n) => {
            // Same tag as Int: a u64 that fits i64 serializes as Int, and
            // the two must fingerprint identically for equal values.
            hasher.write_bytes(b"i");
            hasher.write_u64(*n);
        }
        Value::Float(f) => {
            hasher.write_bytes(b"f");
            hasher.write_f64(*f);
        }
        Value::Str(s) => {
            hasher.write_bytes(b"s");
            hasher.write_str(s);
        }
        Value::Seq(items) => {
            hasher.write_bytes(b"[");
            hasher.write_usize(items.len());
            for item in items {
                hash_value(item, hasher);
            }
        }
        Value::Map(entries) => {
            hasher.write_bytes(b"{");
            hasher.write_usize(entries.len());
            for (key, item) in entries {
                hasher.write_str(key);
                hash_value(item, hasher);
            }
        }
    }
}

impl Fingerprint for MappingConfig {
    fn fingerprint_into(&self, hasher: &mut StableHasher) {
        // Partition fractions: exact f64 bit patterns, row-major.
        hasher.write_usize(self.partition.num_layers());
        hasher.write_usize(self.partition.num_stages());
        for layer in 0..self.partition.num_layers() {
            for stage in 0..self.partition.num_stages() {
                hasher.write_f64(self.partition.fraction(mnc_nn::LayerId(layer), stage));
            }
        }
        // Indicator bits.
        hasher.write_usize(self.indicator.num_layers());
        hasher.write_usize(self.indicator.num_stages());
        for layer in 0..self.indicator.num_layers() {
            for stage in 0..self.indicator.num_stages() {
                hasher.write_bool(self.indicator.is_forwarded(mnc_nn::LayerId(layer), stage));
            }
        }
        // Stage → compute-unit permutation.
        hasher.write_usize(self.mapping.num_stages());
        for cu in self.mapping.as_slice() {
            hasher.write_usize(cu.0);
        }
        // DVFS levels.
        hasher.write_usize(self.dvfs.num_stages());
        for level in self.dvfs.as_slice() {
            hasher.write_usize(*level);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MappingConfig;
    use mnc_mpsoc::Platform;
    use mnc_nn::models::{visformer_tiny, ModelPreset};

    #[test]
    fn hashing_is_stable_and_sensitive() {
        let mut a = StableHasher::new();
        a.write_str("abc");
        a.write_f64(1.5);
        let mut b = StableHasher::new();
        b.write_str("abc");
        b.write_f64(1.5);
        assert_eq!(a.finish(), b.finish());

        let mut c = StableHasher::new();
        c.write_str("abd");
        c.write_f64(1.5);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn config_fingerprint_distinguishes_configurations() {
        let network = visformer_tiny(ModelPreset::cifar100());
        let platform = Platform::dual_test();
        let uniform = MappingConfig::uniform(&network, &platform).unwrap();
        assert_eq!(uniform.fingerprint(), uniform.fingerprint());

        let other = MappingConfig::uniform(&network, &Platform::agx_xavier()).unwrap();
        assert_ne!(uniform.fingerprint(), other.fingerprint());
    }

    #[test]
    fn serialized_fingerprint_matches_equal_values() {
        let p = Platform::dual_test();
        assert_eq!(
            fingerprint_serialized(&p),
            fingerprint_serialized(&p.clone())
        );
        assert_ne!(
            fingerprint_serialized(&p),
            fingerprint_serialized(&Platform::agx_xavier())
        );
    }
}
