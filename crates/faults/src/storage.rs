//! Storage fault model: torn writes and bit flips against snapshot files.
//!
//! The checkpoint store promises crash safety; this module supplies the
//! crashes. A torn write models power loss mid-`write(2)` (the file keeps
//! only a prefix of its bytes), a bit flip models media corruption under a
//! valid length. Both are drawn from the injector's dedicated storage RNG
//! stream, so enabling them never perturbs the NPU/sensor/DVFS schedules.

use std::fs;
use std::io;
use std::path::Path;

/// Storage fault model. All rates are per written file, in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StorageFaultConfig {
    /// Probability that a write is torn: only a prefix of the bytes lands.
    pub torn_write_rate: f64,
    /// Probability that a written file suffers a single flipped bit.
    pub bit_flip_rate: f64,
}

/// Fate drawn for one file write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The write lands intact.
    None,
    /// Only the first `keep` bytes land; the rest are lost.
    TornWrite {
        /// Number of leading bytes preserved.
        keep: usize,
    },
    /// Bit `bit` of byte `offset` is inverted.
    BitFlip {
        /// Byte offset of the flip.
        offset: usize,
        /// Bit index within the byte (0..8).
        bit: u8,
    },
}

impl StorageFault {
    /// Applies the fault to an in-memory file image.
    ///
    /// # Examples
    ///
    /// ```
    /// use faults::StorageFault;
    ///
    /// let mut bytes = vec![0u8; 4];
    /// StorageFault::BitFlip { offset: 2, bit: 0 }.apply(&mut bytes);
    /// assert_eq!(bytes, [0, 0, 1, 0]);
    /// StorageFault::TornWrite { keep: 1 }.apply(&mut bytes);
    /// assert_eq!(bytes, [0]);
    /// ```
    pub fn apply(self, bytes: &mut Vec<u8>) {
        match self {
            StorageFault::None => {}
            StorageFault::TornWrite { keep } => bytes.truncate(keep),
            StorageFault::BitFlip { offset, bit } => {
                if let Some(b) = bytes.get_mut(offset) {
                    *b ^= 1u8 << (bit % 8);
                }
            }
        }
    }

    /// Applies the fault destructively to a file on disk (read, corrupt,
    /// rewrite in place — deliberately *not* atomic; that is the point).
    pub fn apply_to_file(self, path: &Path) -> io::Result<()> {
        if self == StorageFault::None {
            return Ok(());
        }
        let mut bytes = fs::read(path)?;
        self.apply(&mut bytes);
        fs::write(path, &bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_zero() {
        let cfg = StorageFaultConfig::default();
        assert_eq!(cfg.torn_write_rate, 0.0);
        assert_eq!(cfg.bit_flip_rate, 0.0);
    }

    #[test]
    fn torn_write_keeps_prefix() {
        let mut bytes = vec![1, 2, 3, 4, 5];
        StorageFault::TornWrite { keep: 2 }.apply(&mut bytes);
        assert_eq!(bytes, [1, 2]);
    }

    #[test]
    fn bit_flip_out_of_range_is_noop() {
        let mut bytes = vec![0u8; 2];
        StorageFault::BitFlip { offset: 99, bit: 3 }.apply(&mut bytes);
        assert_eq!(bytes, [0, 0]);
    }

    #[test]
    fn apply_to_file_round_trips() {
        let path = std::env::temp_dir().join(format!("storage-fault-{}", std::process::id()));
        fs::write(&path, [0b0000_0000u8]).unwrap();
        StorageFault::BitFlip { offset: 0, bit: 7 }
            .apply_to_file(&path)
            .unwrap();
        assert_eq!(fs::read(&path).unwrap(), [0b1000_0000]);
        StorageFault::TornWrite { keep: 0 }
            .apply_to_file(&path)
            .unwrap();
        assert_eq!(fs::read(&path).unwrap(), Vec::<u8>::new());
        fs::remove_file(&path).ok();
    }
}
