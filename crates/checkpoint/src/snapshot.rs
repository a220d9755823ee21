//! The on-disk snapshot format.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"TOPCKPT\0"
//! 8       4     format version (u32 LE)
//! 12      8     RNG stream fingerprint (u64 LE)
//! 20      8     sequence number (u64 LE)
//! 28      8+k   kind tag (u64 LE length, then k UTF-8 bytes)
//! ..      8+n   payload (u64 LE length, then n opaque bytes)
//! end-8   8     FNV-64 checksum over all preceding bytes (u64 LE)
//! ```
//!
//! The checksum is last so it covers the header too: a flipped bit in the
//! version, sequence number, or kind tag is as detectable as one in the
//! payload. FNV-1a multiplies by an odd prime, so any single-byte change
//! anywhere in the file changes the checksum.

use std::fmt;

use crate::codec::{CodecError, Decoder, Encoder};
use crate::fnv::Fnv64;

/// Current snapshot format version.
pub const FORMAT_VERSION: u32 = 1;

/// File magic: identifies a snapshot regardless of extension.
pub const MAGIC: &[u8; 8] = b"TOPCKPT\0";

/// A decoded snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Kind tag (e.g. `"il-train"`); a store only loads its own kind.
    pub kind: String,
    /// Monotonically increasing per-store sequence number.
    pub seq: u64,
    /// Fingerprint of the producing process's RNG stream; consumers use it
    /// to refuse resuming into a divergent random sequence.
    pub rng_fingerprint: u64,
    /// The opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Why snapshot bytes failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with the magic bytes `TOPCKPT\0`.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The file ended early or a field was malformed.
    Truncated {
        /// The underlying codec error.
        source: CodecError,
    },
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the file contents.
        computed: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "bad magic: not a checkpoint snapshot"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads <= {FORMAT_VERSION})"
            ),
            SnapshotError::Truncated { source } => write!(f, "truncated snapshot: {source}"),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Truncated { source } => Some(source),
            _ => None,
        }
    }
}

/// Encodes a snapshot into its on-disk byte representation.
///
/// # Examples
///
/// ```
/// use checkpoint::{decode_snapshot, encode_snapshot};
///
/// let bytes = encode_snapshot("demo", 3, 0xABCD, b"payload");
/// let snap = decode_snapshot(&bytes).unwrap();
/// assert_eq!(snap.kind, "demo");
/// assert_eq!(snap.seq, 3);
/// assert_eq!(snap.payload, b"payload");
/// ```
pub fn encode_snapshot(kind: &str, seq: u64, rng_fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    for &b in MAGIC {
        enc.put_u8(b);
    }
    enc.put_u32(FORMAT_VERSION);
    enc.put_u64(rng_fingerprint);
    enc.put_u64(seq);
    enc.put_str(kind);
    enc.put_bytes(payload);
    let mut bytes = enc.finish();
    let mut hasher = Fnv64::new();
    hasher.write(&bytes);
    bytes.extend_from_slice(&hasher.finish().to_le_bytes());
    bytes
}

/// Validates and decodes snapshot bytes.
///
/// Checks, in order: minimum length, magic, checksum (over everything but
/// the trailing 8 bytes), version, then field structure. Arbitrary garbage
/// yields a typed [`SnapshotError`], never a panic.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    // 8 magic + 4 version + 8 fingerprint + 8 seq + 8 kind len + 8 payload
    // len + 8 checksum.
    const MIN_LEN: usize = 8 + 4 + 8 + 8 + 8 + 8 + 8;
    if bytes.len() < MIN_LEN {
        return Err(SnapshotError::Truncated {
            source: CodecError::UnexpectedEof {
                needed: MIN_LEN,
                at: 0,
                remaining: bytes.len(),
            },
        });
    }
    if &bytes[..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    let mut hasher = Fnv64::new();
    hasher.write(body);
    let computed = hasher.finish();
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    fn read<T>(r: Result<T, CodecError>) -> Result<T, SnapshotError> {
        r.map_err(|source| SnapshotError::Truncated { source })
    }
    let mut dec = Decoder::new(&body[8..]);
    let version = read(dec.get_u32())?;
    if version > FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let rng_fingerprint = read(dec.get_u64())?;
    let seq = read(dec.get_u64())?;
    let kind = read(dec.get_str())?.to_string();
    let payload = read(dec.get_bytes())?.to_vec();
    read(dec.expect_end())?;
    Ok(Snapshot {
        kind,
        seq,
        rng_fingerprint,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_all_fields() {
        let bytes = encode_snapshot("qtable", u64::MAX, 0x1234_5678_9ABC_DEF0, &[0u8; 64]);
        let snap = decode_snapshot(&bytes).unwrap();
        assert_eq!(snap.kind, "qtable");
        assert_eq!(snap.seq, u64::MAX);
        assert_eq!(snap.rng_fingerprint, 0x1234_5678_9ABC_DEF0);
        assert_eq!(snap.payload, vec![0u8; 64]);
    }

    #[test]
    fn empty_payload_round_trips() {
        let bytes = encode_snapshot("", 0, 0, b"");
        let snap = decode_snapshot(&bytes).unwrap();
        assert!(snap.kind.is_empty());
        assert!(snap.payload.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_snapshot("k", 1, 2, b"p");
        bytes[0] ^= 0xFF;
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        // Re-encode with a bumped version and a recomputed checksum: the
        // version check must fire even when the checksum is valid.
        let mut bytes = encode_snapshot("k", 1, 2, b"p");
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let body_len = bytes.len() - 8;
        let mut hasher = Fnv64::new();
        hasher.write(&bytes[..body_len]);
        let checksum = hasher.finish().to_le_bytes();
        bytes[body_len..].copy_from_slice(&checksum);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::UnsupportedVersion { found }) if found == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn truncation_at_any_length_is_rejected() {
        let bytes = encode_snapshot("kind", 9, 9, b"some payload bytes");
        for keep in 0..bytes.len() {
            let err = decode_snapshot(&bytes[..keep]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::BadMagic
                ),
                "keep={keep}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode_snapshot("kind", 1, 0xFEED, b"payload under test");
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                decode_snapshot(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }
}
