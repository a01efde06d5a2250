//! Observability layer for the CDP simulator.
//!
//! Three pieces, all std-only:
//!
//! * [`trace`] — a ring-buffered structured event tracer. Hook sites in the
//!   memory hierarchy record [`trace::TraceEvent`]s (VAM accept/reject with
//!   cause, prefetch issue/drop with reason, chain depth transitions,
//!   reinforcement rescans, MSHR merges, fault-latch drains) subject to a
//!   category filter and a sampling stride. When no tracer is installed the
//!   simulator's hot path is untouched: no allocation, no branch beyond a
//!   single `Option` check, byte-identical output.
//! * [`json`] — a minimal JSON value type with a serializer and a
//!   recursive-descent parser. The workspace is offline and registry-free,
//!   so this replaces serde for manifest and JSONL emission *and* for
//!   validating artifacts in CI.
//! * [`manifest`] — run-manifest schema helpers: a FNV-1a config
//!   fingerprint, the required-key list, and a validator used by the
//!   `validate-manifest` binary and the integration tests.
//! * [`hist`] — HDR-style log-bucketed histograms ([`Hist`], bundled per
//!   run as a [`Profile`]) for latency attribution: mergeable,
//!   snapshot-able through `cdp-snap`, with p50/p90/p99/p999 extraction.

#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod manifest;
pub mod trace;

pub use hist::{Hist, Profile, HIST_BUCKETS};
pub use json::Json;
pub use manifest::{
    fingerprint, fingerprint_hex, validate, MIN_SCHEMA_VERSION, PROFILE_HIST_KEYS,
    PROFILE_STAT_KEYS, REQUIRED_KEYS, SCHEMA_VERSION,
};
pub use trace::{DropReason, FaultTag, TraceData, TraceEvent, TraceRing, VamCause};
