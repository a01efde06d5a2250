//! Result payload codec for the persistent store (`cdp-store`).
//!
//! The store moves opaque bytes; this module defines what those bytes
//! *are* for a simulation result: a versioned encoding of
//! ([`RunStats`], `Option<`[`Observation`]`>`) — exactly the pair the
//! in-memory [`crate::exec::ResultCache`] holds per cell. The encoding
//! rides inside a checksummed `cdp-snap` section, so this layer only
//! needs structural validation (version gate, length guards); bit-level
//! damage is caught by the envelope before these bytes are ever decoded.
//! Every stats type is written by its own `save_state`, the codec its
//! component's snapshot also uses, so each counter has one encoding.
//!
//! The payload carries its own version, independent of the store's
//! envelope version: the envelope describes *how entries are framed*,
//! this describes *what a result contains*. Bumping either refuses old
//! files safely (typed [`SnapshotError::UnsupportedVersion`]), and a
//! refused entry is just a cache miss — the cell recomputes.

use cdp_obs::trace::{load_trace_data, save_trace_data, TraceEvent};
use cdp_prefetch::adaptive::AdaptiveStats;
use cdp_prefetch::content;
use cdp_prefetch::{
    ContentStats, DeltaStats, JumpStats, PerceptronStats, StreamStats, StrideStats,
};
use cdp_snap::{Dec, Enc};
use cdp_types::SnapshotError;

use crate::observe::{MetricsWindow, Observation};
use crate::system::RunStats;

/// Version of the result payload encoding. Bump on any layout change;
/// payloads of any other version are refused (and recomputed) instead of
/// misdecoded. History: v1 — initial layout; v2 — appends the optional
/// latency-attribution [`cdp_obs::Profile`] to observations; v3 — adds
/// the delta, jump and perceptron stats (the Markov STAB shares the
/// delta codec).
pub const RESULT_VERSION: u32 = 3;

/// Encodes a cached cell result — run statistics plus the optional
/// observation — into self-contained payload bytes for the store.
#[must_use]
pub fn encode_result(stats: &RunStats, obs: Option<&Observation>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(RESULT_VERSION);
    save_run_stats(stats, &mut e);
    match obs {
        Some(o) => {
            e.bool(true);
            save_observation(o, &mut e);
        }
        None => e.bool(false),
    }
    e.into_bytes()
}

/// Decodes payload bytes written by [`encode_result`].
///
/// # Errors
///
/// Returns a typed [`SnapshotError`] on truncation, a payload version
/// other than [`RESULT_VERSION`], or structurally impossible values.
/// Callers treat any error as a miss (recompute).
pub fn decode_result(bytes: &[u8]) -> Result<(RunStats, Option<Observation>), SnapshotError> {
    let mut d = Dec::new(bytes);
    let version = d.u32("result payload version")?;
    if version != RESULT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: RESULT_VERSION,
        });
    }
    let stats = load_run_stats(&mut d)?;
    let obs = if d.bool("result has observation")? {
        Some(load_observation(&mut d)?)
    } else {
        None
    };
    if !d.is_exhausted() {
        return Err(SnapshotError::Corrupt {
            context: "result payload trailing bytes",
        });
    }
    Ok((stats, obs))
}

fn save_run_stats(s: &RunStats, e: &mut Enc) {
    e.u64(s.cycles);
    e.u64(s.retired);
    s.core.save_state(e);
    s.mem.save_state(e);
    opt(e, s.content.as_ref(), ContentStats::save_state);
    opt(e, s.stride.as_ref(), StrideStats::save_state);
    opt(e, s.markov.as_ref(), DeltaStats::save_state);
    opt(e, s.stream.as_ref(), StreamStats::save_state);
    opt(e, s.adaptive.as_ref(), |(a, cfg), e| {
        a.save_state(e);
        content::save_config(cfg, e);
    });
    opt(e, s.delta.as_ref(), DeltaStats::save_state);
    opt(e, s.jump.as_ref(), JumpStats::save_state);
    opt(e, s.perceptron.as_ref(), PerceptronStats::save_state);
    s.bus.save_state(e);
}

fn load_run_stats(d: &mut Dec<'_>) -> Result<RunStats, SnapshotError> {
    let mut s = RunStats {
        cycles: d.u64("result cycles")?,
        retired: d.u64("result retired")?,
        ..RunStats::default()
    };
    s.core.restore_state(d)?;
    s.mem.restore_state(d)?;
    s.content = opt_load(d, "result content stats", ContentStats::restore_state)?;
    s.stride = opt_load(d, "result stride stats", StrideStats::restore_state)?;
    s.markov = opt_load(d, "result markov stats", DeltaStats::restore_state)?;
    s.stream = opt_load(d, "result stream stats", StreamStats::restore_state)?;
    s.adaptive = opt_load(
        d,
        "result has adaptive",
        |(a, cfg): &mut (AdaptiveStats, _), d| {
            a.restore_state(d)?;
            content::restore_config(cfg, d)
        },
    )?;
    s.delta = opt_load(d, "result delta stats", DeltaStats::restore_state)?;
    s.jump = opt_load(d, "result jump stats", JumpStats::restore_state)?;
    s.perceptron = opt_load(d, "result perceptron stats", PerceptronStats::restore_state)?;
    s.bus.restore_state(d)?;
    Ok(s)
}

/// Writes a presence flag, then `v` through its codec.
fn opt<T>(e: &mut Enc, v: Option<&T>, save: impl Fn(&T, &mut Enc)) {
    match v {
        Some(v) => {
            e.bool(true);
            save(v, e);
        }
        None => e.bool(false),
    }
}

/// Reads what [`opt`] wrote, restoring into a default value.
fn opt_load<T: Default>(
    d: &mut Dec<'_>,
    context: &'static str,
    restore: impl Fn(&mut T, &mut Dec<'_>) -> Result<(), SnapshotError>,
) -> Result<Option<T>, SnapshotError> {
    if !d.bool(context)? {
        return Ok(None);
    }
    let mut v = T::default();
    restore(&mut v, d)?;
    Ok(Some(v))
}

fn save_observation(o: &Observation, e: &mut Enc) {
    e.seq_len(o.windows.len());
    for w in &o.windows {
        w.save_state(e);
    }
    e.seq_len(o.events.len());
    for ev in &o.events {
        e.u64(ev.seq);
        e.u64(ev.at);
        save_trace_data(&ev.data, e);
    }
    e.u64(o.trace_recorded);
    e.u64(o.trace_overwritten);
    e.u64(o.trace_sampled_out);
    match &o.profile {
        Some(p) => {
            e.bool(true);
            p.save_state(e);
        }
        None => e.bool(false),
    }
}

fn load_observation(d: &mut Dec<'_>) -> Result<Observation, SnapshotError> {
    // MetricsWindow is 16 fixed-width fields; 17 is the smallest
    // possible encoding (usize can shrink, the u64s cannot... both are
    // fixed 8 bytes here, but a conservative floor still bounds the
    // allocation).
    let n_windows = d.seq_len(16 * 8, "observation window count")?;
    let mut windows = Vec::with_capacity(n_windows);
    for _ in 0..n_windows {
        windows.push(MetricsWindow::restore_state(d)?);
    }
    let n_events = d.seq_len(17, "observation event count")?;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        events.push(TraceEvent {
            seq: d.u64("event seq")?,
            at: d.u64("event at")?,
            data: load_trace_data(d)?,
        });
    }
    let trace_recorded = d.u64("observation trace_recorded")?;
    let trace_overwritten = d.u64("observation trace_overwritten")?;
    let trace_sampled_out = d.u64("observation trace_sampled_out")?;
    let profile = if d.bool("observation has profile")? {
        Some(cdp_obs::Profile::restore_state(d)?)
    } else {
        None
    };
    Ok(Observation {
        windows,
        events,
        trace_recorded,
        trace_overwritten,
        trace_sampled_out,
        profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdp_obs::trace::TraceData;
    use cdp_types::ContentConfig;

    fn sample_stats() -> RunStats {
        let mut s = RunStats {
            cycles: 123_456,
            retired: 99_000,
            ..RunStats::default()
        };
        s.core.loads = 42_000;
        s.core.mispredicts = 77;
        s.mem.l2_demand_misses = 1_234;
        s.mem.stride.issued = 500;
        s.content = Some(ContentStats {
            fills_scanned: 10,
            rescans: 2,
            candidates: 8,
            emitted: 20,
            depth_terminations: 1,
        });
        s.stride = Some(StrideStats {
            observed: 31,
            emitted: 32,
            conflicts: 33,
        });
        s.markov = Some(DeltaStats {
            observed: 41,
            table_hits: 42,
            emitted: 43,
            trained: 44,
            evictions: 45,
        });
        s.stream = Some(StreamStats {
            observed: 51,
            confirmed: 52,
            allocated: 53,
            emitted: 54,
        });
        s.delta = Some(DeltaStats {
            observed: 61,
            table_hits: 62,
            emitted: 63,
            trained: 64,
            evictions: 65,
        });
        s.jump = Some(JumpStats {
            observed: 71,
            trained: 72,
            table_hits: 73,
            emitted: 74,
            evictions: 75,
        });
        s.perceptron = Some(PerceptronStats {
            considered: 81,
            accepted: 82,
            rejected: 83,
            trained_useful: 84,
            trained_wasted: 85,
            false_negatives: 86,
        });
        s.adaptive = Some((
            AdaptiveStats {
                windows: 4,
                tightened: 1,
                loosened: 2,
            },
            ContentConfig::tuned(),
        ));
        s.bus.transfers = 999;
        s
    }

    fn sample_observation() -> Observation {
        Observation {
            windows: vec![MetricsWindow {
                window: 0,
                retired: 1000,
                cycles: 2000,
                ..MetricsWindow::default()
            }],
            events: vec![TraceEvent {
                seq: 7,
                at: 1234,
                data: TraceData::VamAccept { word: 0x1000_0040 },
            }],
            trace_recorded: 8,
            trace_overwritten: 1,
            trace_sampled_out: 2,
            profile: Some({
                let mut p = cdp_obs::Profile::new();
                for v in [3u64, 5, 900, 4096, 1 << 40] {
                    p.load_to_use.record(v);
                    p.rob_stall.record(v / 2);
                }
                p.mshr_occupancy.record(4);
                p
            }),
        }
    }

    #[test]
    fn payload_bytes_are_pinned() {
        // Every store entry written by an earlier build of this version
        // must keep replaying: the sample's encoding hashes to the value
        // the field-by-field encoder of `RESULT_VERSION` 3 produced.
        let bytes = encode_result(&sample_stats(), Some(&sample_observation()));
        let mut h = cdp_snap::WordHasher::new();
        h.write(&bytes);
        assert_eq!((bytes.len(), h.finish()), (1342, 0x6a9d_f4a7_4e23_7c40));
    }

    #[test]
    fn sample_sets_every_optional_stat() {
        // The round-trip tests only cover what the sample sets: every
        // `Option` field of `RunStats` must be `Some` here.
        let debug = format!("{:?}", sample_stats());
        assert!(!debug.contains("None"), "{debug}");
    }

    #[test]
    fn round_trips_stats_without_observation() {
        let stats = sample_stats();
        let bytes = encode_result(&stats, None);
        let (back, obs) = decode_result(&bytes).unwrap();
        assert!(obs.is_none());
        assert_eq!(format!("{stats:?}"), format!("{back:?}"));
    }

    #[test]
    fn round_trips_stats_with_observation() {
        let stats = sample_stats();
        let obs = sample_observation();
        let bytes = encode_result(&stats, Some(&obs));
        let (back_stats, back_obs) = decode_result(&bytes).unwrap();
        assert_eq!(format!("{stats:?}"), format!("{back_stats:?}"));
        assert_eq!(format!("{obs:?}"), format!("{:?}", back_obs.unwrap()));
    }

    #[test]
    fn default_stats_round_trip() {
        let stats = RunStats::default();
        let (back, obs) = decode_result(&encode_result(&stats, None)).unwrap();
        assert!(obs.is_none());
        assert_eq!(format!("{stats:?}"), format!("{back:?}"));
    }

    #[test]
    fn older_versions_are_refused_typed() {
        // Older payloads lack stats this build reports; replaying them
        // would turn a fresh run's `Some` into `None`.
        let mut bytes = encode_result(&sample_stats(), Some(&sample_observation()));
        for old in 1..RESULT_VERSION {
            bytes[0..4].copy_from_slice(&old.to_le_bytes());
            match decode_result(&bytes) {
                Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                    assert_eq!(found, old);
                    assert_eq!(supported, RESULT_VERSION);
                }
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn future_version_is_refused_typed() {
        let mut bytes = encode_result(&RunStats::default(), None);
        bytes[0..4].copy_from_slice(&(RESULT_VERSION + 1).to_le_bytes());
        match decode_result(&bytes) {
            Err(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, RESULT_VERSION + 1);
                assert_eq!(supported, RESULT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_refused_typed() {
        let bytes = encode_result(&sample_stats(), Some(&sample_observation()));
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            match decode_result(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncation at {cut} must not decode"),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_refused() {
        let mut bytes = encode_result(&RunStats::default(), None);
        bytes.extend_from_slice(&[0xAA; 8]);
        match decode_result(&bytes) {
            Err(SnapshotError::Corrupt { context }) => {
                assert!(context.contains("trailing"), "{context}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
