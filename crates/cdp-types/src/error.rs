//! The workspace-wide error type.
//!
//! The paper's central safety argument is that a content-directed
//! prefetcher *squashes* bad candidates — a mistranslated pointer costs a
//! dropped request, never a fault (§3.5). The simulator holds itself to
//! the same standard: conditions that genuinely cannot be recovered
//! (an invalid configuration, a demand access outside the mapped image,
//! a corrupt workload trace) surface as typed [`CdpError`] values instead
//! of panics, so the experiment harness can report them per sweep cell
//! and keep going.

use std::fmt;

use crate::addr::VirtAddr;
use crate::validate::ConfigError;

/// Everything that can go irrecoverably wrong in a simulation run.
///
/// Speculative failures (an unmapped prefetch candidate, a dropped
/// request) are *not* errors — they are squashed and counted, exactly as
/// the hardware would. `CdpError` covers only the demand path and the
/// harness around it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CdpError {
    /// The system configuration failed structural validation.
    Config(ConfigError),
    /// A demand access (load/store in the trace) touched an unmapped
    /// page. Demand traces only touch mapped memory by construction, so
    /// this indicates a corrupt image or an injected fault.
    UnmappedAccess {
        /// Program counter of the faulting uop.
        pc: u32,
        /// The unmapped virtual address.
        addr: VirtAddr,
    },
    /// A hardware page walk on the demand path failed even though the
    /// mapping may exist (e.g. an injected TLB-walk fault).
    TranslationFailure {
        /// The virtual address whose walk failed.
        addr: VirtAddr,
    },
    /// A workload image failed validation: a trace uop targets memory
    /// outside the mapped image.
    CorruptWorkload {
        /// Benchmark name (Table 2 spelling).
        benchmark: String,
        /// Index of the first offending uop.
        uop: usize,
        /// The unmapped address it targets.
        addr: VirtAddr,
    },
    /// A checkpoint snapshot could not be decoded or does not belong to
    /// this run (see [`SnapshotError`]). Resume refuses rather than
    /// continuing from a silently-wrong state.
    Snapshot(SnapshotError),
    /// The persistent result store failed (see [`StoreError`]). Store
    /// failures never abort a simulation — a cell recomputes instead —
    /// but maintenance tools (`store-fsck`, GC) surface them typed.
    Store(StoreError),
}

/// Everything that can go wrong decoding a checkpoint snapshot.
///
/// The snapshot codec (crate `cdp-snap`) is defensive by contract: a
/// truncated file, a flipped byte, a snapshot from a different
/// configuration, or a snapshot from a future format version must all
/// surface as one of these typed values — never a panic, and never a
/// resume that silently diverges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with the snapshot magic bytes.
    BadMagic,
    /// The snapshot was written by a format version this build cannot
    /// decode (a newer one, or an older layout it no longer reads).
    UnsupportedVersion {
        /// Version number found in the header.
        found: u32,
        /// The version this build writes.
        supported: u32,
    },
    /// The snapshot's run fingerprint does not match the run being
    /// resumed (different config, workload, or fault plan).
    FingerprintMismatch {
        /// Fingerprint the resuming run expects.
        expected: u64,
        /// Fingerprint stored in the snapshot header.
        found: u64,
    },
    /// The byte stream ended before the decoder got what the length
    /// prefixes promised.
    Truncated {
        /// What the decoder was reading when the bytes ran out.
        context: &'static str,
    },
    /// A section's payload does not hash to its stored checksum.
    ChecksumMismatch {
        /// Tag of the damaged section.
        tag: u32,
    },
    /// A required section is absent from the snapshot.
    MissingSection {
        /// Tag of the absent section.
        tag: u32,
    },
    /// A decoded value is structurally impossible for the run being
    /// resumed (wrong table size, invalid enum tag, out-of-range index).
    Corrupt {
        /// What the decoder was validating when it rejected the value.
        context: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a cdp snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => {
                write!(f, "snapshot version {found} unsupported (this build writes {supported})")
            }
            SnapshotError::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot belongs to a different run: fingerprint {found:#018x}, expected {expected:#018x}"
            ),
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::ChecksumMismatch { tag } => {
                write!(f, "snapshot section {tag} failed its checksum")
            }
            SnapshotError::MissingSection { tag } => {
                write!(f, "snapshot is missing required section {tag}")
            }
            SnapshotError::Corrupt { context } => {
                write!(f, "snapshot is corrupt: invalid {context}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapshotError> for CdpError {
    fn from(e: SnapshotError) -> Self {
        CdpError::Snapshot(e)
    }
}

/// Everything that can go wrong in the persistent result store
/// (crate `cdp-store`).
///
/// The store's failure contract mirrors the snapshot codec's: a damaged
/// entry surfaces as a typed value and is quarantined — never replayed,
/// never a panic. Filesystem failures (full disk, failed rename) degrade
/// a write to a counted no-op; the in-memory tier and recomputation keep
/// the run correct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed (short write, ENOSPC, failed
    /// rename, unreadable directory, ...).
    Io {
        /// The operation that failed (`write`, `rename`, `read`, ...).
        op: &'static str,
        /// The underlying error, rendered (std `io::Error` is neither
        /// `Clone` nor `Eq`, so the message is carried instead).
        detail: String,
    },
    /// An entry's framing or payload failed validation — the store
    /// reuses the snapshot codec, so the damage class is a
    /// [`SnapshotError`].
    Entry(SnapshotError),
    /// The store's maintenance lock is held by another process.
    Locked {
        /// Contents of the lock file (owner pid, when readable).
        owner: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, detail } => write!(f, "store {op} failed: {detail}"),
            StoreError::Entry(e) => write!(f, "store entry rejected: {e}"),
            StoreError::Locked { owner } => {
                write!(f, "store lock held by another process ({owner})")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Entry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Entry(e)
    }
}

impl From<StoreError> for CdpError {
    fn from(e: StoreError) -> Self {
        CdpError::Store(e)
    }
}

impl fmt::Display for CdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdpError::Config(e) => write!(f, "invalid system configuration: {e}"),
            CdpError::UnmappedAccess { pc, addr } => {
                write!(f, "demand access at pc {pc:#x} to unmapped page {addr}")
            }
            CdpError::TranslationFailure { addr } => {
                write!(f, "demand page walk failed for {addr}")
            }
            CdpError::CorruptWorkload {
                benchmark,
                uop,
                addr,
            } => {
                write!(
                    f,
                    "corrupt workload {benchmark}: uop {uop} targets unmapped {addr}"
                )
            }
            CdpError::Snapshot(e) => write!(f, "checkpoint snapshot rejected: {e}"),
            CdpError::Store(e) => write!(f, "result store failed: {e}"),
        }
    }
}

impl std::error::Error for CdpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CdpError::Config(e) => Some(e),
            CdpError::Snapshot(e) => Some(e),
            CdpError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for CdpError {
    fn from(e: ConfigError) -> Self {
        CdpError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_fault_site() {
        let e = CdpError::UnmappedAccess {
            pc: 0x40,
            addr: VirtAddr(0x7777_0000),
        };
        let s = e.to_string();
        assert!(s.contains("0x40"), "{s}");
        assert!(s.contains("7777"), "{s}");
    }

    #[test]
    fn corrupt_workload_names_benchmark_and_uop() {
        let e = CdpError::CorruptWorkload {
            benchmark: "slsb".into(),
            uop: 42,
            addr: VirtAddr(0x1234_0000),
        };
        let s = e.to_string();
        assert!(s.contains("slsb") && s.contains("uop 42"), "{s}");
    }

    #[test]
    fn config_errors_convert_and_chain() {
        let c = ConfigError::AdaptiveWithoutContent;
        let e: CdpError = c.clone().into();
        assert_eq!(e, CdpError::Config(c));
        assert!(std::error::Error::source(&e).is_some());
        let u = CdpError::TranslationFailure {
            addr: VirtAddr(0x10),
        };
        assert!(std::error::Error::source(&u).is_none());
    }
}
