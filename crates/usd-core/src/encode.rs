//! Compact binary encoding of USD trajectories.
//!
//! A Figure-1 run at n = 10⁶ records ~100 snapshots of 28 counts; sweeps
//! record far more. This module provides a small, versioned, little-endian
//! binary format (written and read with the checkpoint codec,
//! [`SnapshotWriter`] and [`SnapshotReader`]) so experiment binaries can
//! persist raw traces cheaply and reload them for re-plotting without
//! re-simulating. Decoding never panics: every malformed blob is a
//! [`DecodeError`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  u32  = 0x5553_4454  ("USDT")
//! version u16 = 1
//! k      u16
//! n      u64
//! count  u64                 — number of snapshots
//! count × { t u64, x[0..k] u64 ×k, u u64 }
//! ```

use crate::config::UsdConfig;
use pop_proto::checkpoint::{CheckpointError, SnapshotReader, SnapshotWriter};

const MAGIC: u32 = 0x5553_4454;
const VERSION: u16 = 1;

/// The most opinions a trajectory can hold: the header stores k in 16 bits.
pub const MAX_K: usize = u16::MAX as usize;

/// A recorded trajectory: interaction stamps plus configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trajectory {
    /// Population size (redundant with snapshots; kept for validation).
    pub n: u64,
    /// Number of opinions.
    pub k: usize,
    /// `(interaction, configuration)` snapshots in increasing order.
    pub snapshots: Vec<(u64, UsdConfig)>,
}

/// Errors from decoding a trajectory blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The magic number did not match.
    BadMagic(u32),
    /// Unsupported format version.
    BadVersion(u16),
    /// The buffer ended before the declared content.
    Truncated,
    /// The header declares k = 0 opinions.
    NoOpinions,
    /// A snapshot's counts did not sum to the declared n (an overflowing
    /// sum included).
    InconsistentPopulation {
        /// Index of the offending snapshot.
        snapshot: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad magic 0x{m:08X}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::Truncated => write!(f, "truncated trajectory blob"),
            DecodeError::NoOpinions => write!(f, "header declares k = 0 opinions"),
            DecodeError::InconsistentPopulation { snapshot } => {
                write!(f, "snapshot {snapshot} does not sum to n")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The reader's fixed-width reads fail only when the blob runs out.
fn truncated(_: CheckpointError) -> DecodeError {
    DecodeError::Truncated
}

impl Trajectory {
    /// Create an empty trajectory for a `(n, k)` system, 1 ≤ k ≤ [`MAX_K`].
    pub fn new(n: u64, k: usize) -> Self {
        assert!(
            (1..=MAX_K).contains(&k),
            "a trajectory holds 1..={MAX_K} opinions, not {k}"
        );
        Trajectory {
            n,
            k,
            snapshots: Vec::new(),
        }
    }

    /// Append a snapshot. Panics if the configuration shape mismatches.
    pub fn push(&mut self, interactions: u64, config: UsdConfig) {
        assert_eq!(config.k(), self.k, "k mismatch");
        assert_eq!(config.n(), self.n, "n mismatch");
        if let Some(&(last, _)) = self.snapshots.last() {
            assert!(interactions >= last, "snapshots must be ordered");
        }
        self.snapshots.push((interactions, config));
    }

    /// Encode into a binary blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u32(MAGIC);
        w.put_u16(VERSION);
        w.put_u16(u16::try_from(self.k).expect("Trajectory::new bounds k by MAX_K"));
        w.put_u64(self.n);
        w.put_u64(self.snapshots.len() as u64);
        for (t, cfg) in &self.snapshots {
            w.put_u64(*t);
            for &x in cfg.opinions() {
                w.put_u64(x);
            }
            w.put_u64(cfg.u());
        }
        w.into_bytes()
    }

    /// Decode from a binary blob. Bytes after the declared snapshots are
    /// ignored.
    pub fn decode(blob: &[u8]) -> Result<Self, DecodeError> {
        let mut r = SnapshotReader::new(blob);
        let magic = r.get_u32().map_err(truncated)?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        let version = r.get_u16().map_err(truncated)?;
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let k = r.get_u16().map_err(truncated)? as usize;
        if k == 0 {
            return Err(DecodeError::NoOpinions);
        }
        let n = r.get_u64().map_err(truncated)?;
        let count = r.get_u64().map_err(truncated)?;
        // Checked before allocating, so `count` cannot exceed the snapshots
        // the remaining bytes hold.
        let per = 8 * (k as u64 + 2);
        if (r.remaining() as u64) < count.saturating_mul(per) {
            return Err(DecodeError::Truncated);
        }
        let mut snapshots = Vec::with_capacity(count as usize);
        for snapshot in 0..count as usize {
            let t = r.get_u64().map_err(truncated)?;
            let mut x = Vec::with_capacity(k);
            for _ in 0..k {
                x.push(r.get_u64().map_err(truncated)?);
            }
            let u = r.get_u64().map_err(truncated)?;
            if x.iter().try_fold(u, |sum, &xi| sum.checked_add(xi)) != Some(n) {
                return Err(DecodeError::InconsistentPopulation { snapshot });
            }
            snapshots.push((t, UsdConfig::new(x, u)));
        }
        Ok(Trajectory { n, k, snapshots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trajectory {
        let mut t = Trajectory::new(100, 3);
        t.push(0, UsdConfig::decided(vec![40, 30, 30]));
        t.push(50, UsdConfig::new(vec![30, 20, 20], 30));
        t.push(500, UsdConfig::new(vec![100, 0, 0], 0));
        t
    }

    /// A header for `k` opinions, population `n` and `count` snapshots.
    fn header(k: u16, n: u64, count: u64) -> SnapshotWriter {
        let mut w = SnapshotWriter::new();
        w.put_u32(MAGIC);
        w.put_u16(VERSION);
        w.put_u16(k);
        w.put_u64(n);
        w.put_u64(count);
        w
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let back = Trajectory::decode(&t.encode()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn encoding_bytes_are_pinned() {
        // The format is frozen: whichever build wrote it, the `.usdt` file
        // of this trajectory has exactly these bytes.
        const PINNED: &str = concat!(
            // header: magic, version, k = 3, n = 100, 3 snapshots
            "544453550100030064000000000000000300000000000000",
            // t = 0, x = [40, 30, 30], u = 0
            "000000000000000028000000000000001e000000000000001e000000000000000000000000000000",
            // t = 50, x = [30, 20, 20], u = 30
            "32000000000000001e00000000000000140000000000000014000000000000001e00000000000000",
            // t = 500, x = [100, 0, 0], u = 0
            "f4010000000000006400000000000000000000000000000000000000000000000000000000000000",
        );
        let hex: String = sample()
            .encode()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, PINNED);
    }

    #[test]
    fn empty_trajectory_roundtrips() {
        let t = Trajectory::new(10, 2);
        let back = Trajectory::decode(&t.encode()).unwrap();
        assert_eq!(back, t);
        assert!(back.snapshots.is_empty());
    }

    #[test]
    fn bad_magic_detected() {
        let mut blob = sample().encode();
        blob[0] ^= 0xFF;
        match Trajectory::decode(&blob) {
            Err(DecodeError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn bad_version_detected() {
        let mut blob = sample().encode();
        blob[4] = 99;
        assert_eq!(Trajectory::decode(&blob), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn truncation_detected() {
        // Every proper prefix, the header's included.
        let blob = sample().encode();
        for len in 0..blob.len() {
            assert_eq!(
                Trajectory::decode(&blob[..len]),
                Err(DecodeError::Truncated),
                "prefix of {len} bytes"
            );
        }
        // A count whose snapshots could not fit in any buffer is refused
        // before anything is allocated for them.
        let huge = header(3, 100, 1 << 61).into_bytes();
        assert_eq!(Trajectory::decode(&huge), Err(DecodeError::Truncated));
    }

    #[test]
    fn zero_opinions_detected() {
        let mut w = header(0, 100, 1);
        w.put_u64(0); // t
        w.put_u64(100); // u
        assert_eq!(
            Trajectory::decode(&w.into_bytes()),
            Err(DecodeError::NoOpinions)
        );
    }

    #[test]
    fn inconsistent_population_detected() {
        // Hand-craft blobs whose snapshot counts do not sum to n: 3 + 3 + 3
        // ≠ 10, and a sum that wraps around u64 to exactly n.
        for (n, counts) in [(10, [3, 3, 3]), (1, [u64::MAX, 2, 0])] {
            let mut w = header(2, n, 1);
            w.put_u64(0); // t
            for v in counts {
                w.put_u64(v); // x0, x1, u
            }
            assert_eq!(
                Trajectory::decode(&w.into_bytes()),
                Err(DecodeError::InconsistentPopulation { snapshot: 0 })
            );
        }
    }

    #[test]
    fn every_bit_flip_decodes_or_errs() {
        let blob = sample().encode();
        for bit in 0..8 * blob.len() {
            let mut flipped = blob.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // Decoding returns rather than panicking, and whatever it
            // accepts encodes back to the bytes it read.
            if let Ok(t) = Trajectory::decode(&flipped) {
                assert!(flipped.starts_with(&t.encode()), "bit {bit}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn out_of_order_push_panics() {
        let mut t = Trajectory::new(10, 2);
        t.push(5, UsdConfig::new(vec![5, 5], 0));
        t.push(4, UsdConfig::new(vec![5, 5], 0));
    }

    #[test]
    #[should_panic(expected = "1..=65535 opinions")]
    fn k_past_the_header_field_panics() {
        Trajectory::new(200_000, MAX_K + 1);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            DecodeError::BadMagic(0xDEAD_BEEF).to_string(),
            "bad magic 0xDEADBEEF"
        );
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::NoOpinions.to_string().contains("k = 0"));
    }
}
