//! Ring-buffered structured event tracing.
//!
//! The simulator's hook sites call [`TraceRing::push`] with a cycle stamp
//! and a [`TraceData`] payload. The ring applies the category filter and
//! sampling stride from [`TraceConfig`], overwrites the oldest events once
//! full, and keeps bookkeeping counters (recorded / overwritten /
//! sampled-out) so a drained trace can report how much it elided.
//!
//! The hook sites are only reached when a tracer is installed, so the
//! unobserved simulation path stays allocation-free and byte-identical.

use std::collections::VecDeque;

use cdp_types::{Engine, TraceConfig, TraceFilter};

use crate::json::Json;

/// Why the VAM heuristic rejected a candidate word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VamCause {
    /// Failed the alignment test (low bits not clear).
    Align,
    /// Upper compare bits did not match the trigger address.
    Compare,
    /// Compare bits matched an all-zeros/all-ones region but the filter
    /// bits did not discriminate.
    Filter,
}

impl VamCause {
    fn name(self) -> &'static str {
        match self {
            VamCause::Align => "align",
            VamCause::Compare => "compare",
            VamCause::Filter => "filter",
        }
    }
}

/// Why a prefetch request was dropped (mirrors `DropCounters`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Target line already resident in the L2.
    Resident,
    /// Target line already in flight (merged into the MSHR entry).
    InFlight,
    /// Target address had no translation.
    Unmapped,
    /// MSHR file or bus queue full.
    QueueFull,
    /// Chain depth exceeded the threshold.
    TooDeep,
}

impl DropReason {
    fn name(self) -> &'static str {
        match self {
            DropReason::Resident => "resident",
            DropReason::InFlight => "in_flight",
            DropReason::Unmapped => "unmapped",
            DropReason::QueueFull => "queue_full",
            DropReason::TooDeep => "too_deep",
        }
    }
}

/// Coarse classification of a drained fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTag {
    /// Unmapped demand access.
    Unmapped,
    /// Page-walk failure.
    Walk,
    /// Any other latched error.
    Other,
}

impl FaultTag {
    fn name(self) -> &'static str {
        match self {
            FaultTag::Unmapped => "unmapped",
            FaultTag::Walk => "walk",
            FaultTag::Other => "other",
        }
    }
}

/// The payload of one trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceData {
    /// The VAM heuristic accepted `word` as a candidate pointer.
    VamAccept {
        /// The accepted word (a likely virtual address).
        word: u32,
    },
    /// The VAM heuristic rejected `word`.
    VamReject {
        /// The rejected word.
        word: u32,
        /// Which test rejected it.
        cause: VamCause,
    },
    /// A prefetch request was issued to the bus.
    PrefetchIssue {
        /// Target line address.
        line: u32,
        /// Issuing engine.
        engine: Engine,
        /// Chain depth (0 for non-content engines).
        depth: u8,
    },
    /// A prefetch request was dropped.
    PrefetchDrop {
        /// Target line address.
        line: u32,
        /// Drop reason (mirrors `DropCounters`).
        reason: DropReason,
        /// Chain depth of the dropped request.
        depth: u8,
    },
    /// A resident line's chain depth changed (reinforcement promotion).
    DepthTransition {
        /// The line whose depth changed.
        line: u32,
        /// Previous stored depth.
        from: u8,
        /// New depth.
        to: u8,
    },
    /// A reinforcement rescan of a resident line's contents.
    Rescan {
        /// The rescanned line.
        line: u32,
        /// Depth the rescan was issued at.
        depth: u8,
    },
    /// A request merged into an in-flight MSHR entry.
    MshrMerge {
        /// The in-flight line.
        line: u32,
        /// Engine of the merging request.
        engine: Engine,
    },
    /// The hierarchy's fault latch was drained.
    Fault {
        /// Coarse fault classification.
        kind: FaultTag,
    },
}

impl TraceData {
    /// The filter category this event belongs to.
    #[must_use]
    pub fn category(&self) -> TraceFilter {
        match self {
            TraceData::VamAccept { .. } | TraceData::VamReject { .. } => TraceFilter::VAM,
            TraceData::PrefetchIssue { .. } => TraceFilter::ISSUE,
            TraceData::PrefetchDrop { .. } => TraceFilter::DROP,
            TraceData::DepthTransition { .. } => TraceFilter::DEPTH,
            TraceData::Rescan { .. } => TraceFilter::RESCAN,
            TraceData::MshrMerge { .. } => TraceFilter::MSHR,
            TraceData::Fault { .. } => TraceFilter::FAULT,
        }
    }

    /// Short event-kind name used in JSONL output.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceData::VamAccept { .. } => "vam_accept",
            TraceData::VamReject { .. } => "vam_reject",
            TraceData::PrefetchIssue { .. } => "prefetch_issue",
            TraceData::PrefetchDrop { .. } => "prefetch_drop",
            TraceData::DepthTransition { .. } => "depth_transition",
            TraceData::Rescan { .. } => "rescan",
            TraceData::MshrMerge { .. } => "mshr_merge",
            TraceData::Fault { .. } => "fault",
        }
    }
}

/// One recorded event: a sequence number, a cycle stamp, and the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number over all recorded events.
    pub seq: u64,
    /// Simulated cycle the event occurred at.
    pub at: u64,
    /// Event payload.
    pub data: TraceData,
}

impl TraceEvent {
    /// Encodes the event: `seq`, `at`, then the payload's variant tag byte
    /// and fields. Trace-ring snapshots and stored result payloads both
    /// write events this way.
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.seq);
        enc.u64(self.at);
        save_trace_data(&self.data, enc);
    }

    /// Decodes an event written by [`TraceEvent::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation or an
    /// unknown variant/enum tag.
    pub fn restore_state(
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<TraceEvent, cdp_types::SnapshotError> {
        Ok(TraceEvent {
            seq: dec.u64("trace event seq")?,
            at: dec.u64("trace event at")?,
            data: load_trace_data(dec)?,
        })
    }

    /// Renders the event as a flat JSON object (one JSONL line's payload).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("seq", Json::U64(self.seq));
        o.set("at", Json::U64(self.at));
        o.set("event", Json::Str(self.data.kind_name().to_string()));
        match self.data {
            TraceData::VamAccept { word } => {
                o.set("word", Json::Str(format!("{word:#010x}")));
            }
            TraceData::VamReject { word, cause } => {
                o.set("word", Json::Str(format!("{word:#010x}")));
                o.set("cause", Json::Str(cause.name().to_string()));
            }
            TraceData::PrefetchIssue {
                line,
                engine,
                depth,
            } => {
                o.set("line", Json::Str(format!("{line:#010x}")));
                o.set("engine", Json::Str(engine.name().to_string()));
                o.set("depth", Json::U64(u64::from(depth)));
            }
            TraceData::PrefetchDrop {
                line,
                reason,
                depth,
            } => {
                o.set("line", Json::Str(format!("{line:#010x}")));
                o.set("reason", Json::Str(reason.name().to_string()));
                o.set("depth", Json::U64(u64::from(depth)));
            }
            TraceData::DepthTransition { line, from, to } => {
                o.set("line", Json::Str(format!("{line:#010x}")));
                o.set("from", Json::U64(u64::from(from)));
                o.set("to", Json::U64(u64::from(to)));
            }
            TraceData::Rescan { line, depth } => {
                o.set("line", Json::Str(format!("{line:#010x}")));
                o.set("depth", Json::U64(u64::from(depth)));
            }
            TraceData::MshrMerge { line, engine } => {
                o.set("line", Json::Str(format!("{line:#010x}")));
                o.set("engine", Json::Str(engine.name().to_string()));
            }
            TraceData::Fault { kind } => {
                o.set("kind", Json::Str(kind.name().to_string()));
            }
        }
        o
    }
}

/// A bounded ring of trace events with filtering and sampling.
#[derive(Clone, Debug)]
pub struct TraceRing {
    cfg: TraceConfig,
    buf: VecDeque<TraceEvent>,
    seq: u64,
    seen: u64,
    recorded: u64,
    overwritten: u64,
    sampled_out: u64,
}

impl TraceRing {
    /// Builds an empty ring for `cfg` (capacity is clamped to at least 1).
    #[must_use]
    pub fn new(cfg: TraceConfig) -> Self {
        let capacity = cfg.capacity.max(1);
        TraceRing {
            cfg: TraceConfig { capacity, ..cfg },
            buf: VecDeque::with_capacity(capacity),
            seq: 0,
            seen: 0,
            recorded: 0,
            overwritten: 0,
            sampled_out: 0,
        }
    }

    /// Cheap pre-check for hook sites: does the filter want `category`?
    /// Lets callers skip computing event payloads that would be discarded.
    #[inline]
    #[must_use]
    pub fn wants(&self, category: TraceFilter) -> bool {
        self.cfg.filter.contains(category)
    }

    /// Records one event, subject to the filter and sampling stride.
    pub fn push(&mut self, at: u64, data: TraceData) {
        if !self.cfg.filter.contains(data.category()) {
            return;
        }
        self.seen += 1;
        if self.cfg.sample > 1 && !(self.seen - 1).is_multiple_of(self.cfg.sample) {
            self.sampled_out += 1;
            return;
        }
        if self.buf.len() == self.cfg.capacity {
            self.buf.pop_front();
            self.overwritten += 1;
        }
        self.buf.push_back(TraceEvent {
            seq: self.seq,
            at,
            data,
        });
        self.seq += 1;
        self.recorded += 1;
    }

    /// Discards buffered events and resets all counters (used at the
    /// warmup boundary so the trace covers the measurement window only).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.seq = 0;
        self.seen = 0;
        self.recorded = 0;
        self.overwritten = 0;
        self.sampled_out = 0;
    }

    /// The buffered events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.iter().copied().collect()
    }

    /// Number of events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events recorded (including ones later overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to ring overwrite.
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Eligible events skipped by the sampling stride.
    #[must_use]
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// The ring's configuration.
    #[must_use]
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Serializes the buffered events and bookkeeping counters. The
    /// configuration is *not* written — a restored ring keeps the config
    /// it was constructed with, which the caller derives from the run
    /// configuration exactly as the original did.
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.seq);
        enc.u64(self.seen);
        enc.u64(self.recorded);
        enc.u64(self.overwritten);
        enc.u64(self.sampled_out);
        enc.seq_len(self.buf.len());
        for e in &self.buf {
            e.save_state(enc);
        }
    }

    /// Restores state written by [`TraceRing::save_state`] into a ring of
    /// the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation, an
    /// unknown event tag, or more buffered events than the ring capacity.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        self.seq = dec.u64("trace seq")?;
        self.seen = dec.u64("trace seen")?;
        self.recorded = dec.u64("trace recorded")?;
        self.overwritten = dec.u64("trace overwritten")?;
        self.sampled_out = dec.u64("trace sampled_out")?;
        let n = dec.seq_len(8 + 8 + 1, "trace buffer length")?;
        if n > self.cfg.capacity {
            return Err(cdp_types::SnapshotError::Corrupt {
                context: "trace buffer length",
            });
        }
        self.buf.clear();
        for _ in 0..n {
            self.buf.push_back(TraceEvent::restore_state(dec)?);
        }
        Ok(())
    }
}

fn engine_from(code: u8) -> Result<Engine, cdp_types::SnapshotError> {
    Engine::from_code(code).ok_or(cdp_types::SnapshotError::Corrupt {
        context: "trace engine tag",
    })
}

/// Encodes one [`TraceData`] payload (variant tag byte + fields).
fn save_trace_data(data: &TraceData, enc: &mut cdp_snap::Enc) {
    match *data {
        TraceData::VamAccept { word } => {
            enc.u8(0);
            enc.u32(word);
        }
        TraceData::VamReject { word, cause } => {
            enc.u8(1);
            enc.u32(word);
            enc.u8(match cause {
                VamCause::Align => 0,
                VamCause::Compare => 1,
                VamCause::Filter => 2,
            });
        }
        TraceData::PrefetchIssue {
            line,
            engine,
            depth,
        } => {
            enc.u8(2);
            enc.u32(line);
            enc.u8(engine.code());
            enc.u8(depth);
        }
        TraceData::PrefetchDrop {
            line,
            reason,
            depth,
        } => {
            enc.u8(3);
            enc.u32(line);
            enc.u8(match reason {
                DropReason::Resident => 0,
                DropReason::InFlight => 1,
                DropReason::Unmapped => 2,
                DropReason::QueueFull => 3,
                DropReason::TooDeep => 4,
            });
            enc.u8(depth);
        }
        TraceData::DepthTransition { line, from, to } => {
            enc.u8(4);
            enc.u32(line);
            enc.u8(from);
            enc.u8(to);
        }
        TraceData::Rescan { line, depth } => {
            enc.u8(5);
            enc.u32(line);
            enc.u8(depth);
        }
        TraceData::MshrMerge { line, engine } => {
            enc.u8(6);
            enc.u32(line);
            enc.u8(engine.code());
        }
        TraceData::Fault { kind } => {
            enc.u8(7);
            enc.u8(match kind {
                FaultTag::Unmapped => 0,
                FaultTag::Walk => 1,
                FaultTag::Other => 2,
            });
        }
    }
}

/// Decodes one payload written by [`save_trace_data`].
fn load_trace_data(dec: &mut cdp_snap::Dec<'_>) -> Result<TraceData, cdp_types::SnapshotError> {
    use cdp_types::SnapshotError;
    Ok(match dec.u8("trace data tag")? {
        0 => TraceData::VamAccept {
            word: dec.u32("trace vam word")?,
        },
        1 => TraceData::VamReject {
            word: dec.u32("trace vam word")?,
            cause: match dec.u8("trace vam cause")? {
                0 => VamCause::Align,
                1 => VamCause::Compare,
                2 => VamCause::Filter,
                _ => {
                    return Err(SnapshotError::Corrupt {
                        context: "trace vam cause",
                    })
                }
            },
        },
        2 => TraceData::PrefetchIssue {
            line: dec.u32("trace issue line")?,
            engine: engine_from(dec.u8("trace issue engine")?)?,
            depth: dec.u8("trace issue depth")?,
        },
        3 => TraceData::PrefetchDrop {
            line: dec.u32("trace drop line")?,
            reason: match dec.u8("trace drop reason")? {
                0 => DropReason::Resident,
                1 => DropReason::InFlight,
                2 => DropReason::Unmapped,
                3 => DropReason::QueueFull,
                4 => DropReason::TooDeep,
                _ => {
                    return Err(SnapshotError::Corrupt {
                        context: "trace drop reason",
                    })
                }
            },
            depth: dec.u8("trace drop depth")?,
        },
        4 => TraceData::DepthTransition {
            line: dec.u32("trace depth line")?,
            from: dec.u8("trace depth from")?,
            to: dec.u8("trace depth to")?,
        },
        5 => TraceData::Rescan {
            line: dec.u32("trace rescan line")?,
            depth: dec.u8("trace rescan depth")?,
        },
        6 => TraceData::MshrMerge {
            line: dec.u32("trace merge line")?,
            engine: engine_from(dec.u8("trace merge engine")?)?,
        },
        7 => TraceData::Fault {
            kind: match dec.u8("trace fault kind")? {
                0 => FaultTag::Unmapped,
                1 => FaultTag::Walk,
                2 => FaultTag::Other,
                _ => {
                    return Err(SnapshotError::Corrupt {
                        context: "trace fault kind",
                    })
                }
            },
        },
        _ => {
            return Err(SnapshotError::Corrupt {
                context: "trace data tag",
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(line: u32) -> TraceData {
        TraceData::PrefetchIssue {
            line,
            engine: Engine::Content,
            depth: 1,
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut r = TraceRing::new(TraceConfig {
            capacity: 2,
            ..TraceConfig::default()
        });
        for i in 0..5u32 {
            r.push(u64::from(i) * 10, issue(i));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.overwritten(), 3);
        let evs = r.events();
        assert_eq!(evs[0].seq, 3);
        assert_eq!(evs[1].seq, 4);
        assert_eq!(evs[1].at, 40);
    }

    #[test]
    fn filter_drops_unwanted_categories() {
        let mut r = TraceRing::new(TraceConfig {
            filter: TraceFilter::DROP,
            ..TraceConfig::default()
        });
        assert!(!r.wants(TraceFilter::ISSUE));
        assert!(r.wants(TraceFilter::DROP));
        r.push(1, issue(0));
        r.push(
            2,
            TraceData::PrefetchDrop {
                line: 0,
                reason: DropReason::Resident,
                depth: 0,
            },
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.events()[0].data.kind_name(), "prefetch_drop");
    }

    #[test]
    fn sampling_records_every_nth() {
        let mut r = TraceRing::new(TraceConfig {
            sample: 3,
            ..TraceConfig::default()
        });
        for i in 0..9u32 {
            r.push(u64::from(i), issue(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.sampled_out(), 6);
        // The 1st, 4th, and 7th eligible events are kept.
        let lines: Vec<u32> = r
            .events()
            .iter()
            .map(|e| match e.data {
                TraceData::PrefetchIssue { line, .. } => line,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(lines, vec![0, 3, 6]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut r = TraceRing::new(TraceConfig::default());
        r.push(1, issue(7));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 0);
        r.push(2, issue(8));
        assert_eq!(r.events()[0].seq, 0);
    }

    #[test]
    fn ring_state_roundtrips_through_codec() {
        let mut r = TraceRing::new(TraceConfig {
            capacity: 4,
            sample: 2,
            ..TraceConfig::default()
        });
        let payloads = [
            TraceData::VamAccept { word: 0x1000_0000 },
            TraceData::VamReject {
                word: 0x7,
                cause: VamCause::Align,
            },
            issue(0x40),
            TraceData::PrefetchDrop {
                line: 0x80,
                reason: DropReason::QueueFull,
                depth: 2,
            },
            TraceData::DepthTransition {
                line: 0xc0,
                from: 3,
                to: 1,
            },
            TraceData::Rescan {
                line: 0x100,
                depth: 1,
            },
            TraceData::MshrMerge {
                line: 0x140,
                engine: Engine::Markov,
            },
            TraceData::Fault {
                kind: FaultTag::Walk,
            },
        ];
        for (i, p) in payloads.iter().enumerate() {
            r.push(i as u64 * 7, *p);
        }
        let mut enc = cdp_snap::Enc::new();
        r.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = TraceRing::new(r.config().clone());
        let mut dec = cdp_snap::Dec::new(&bytes);
        restored.restore_state(&mut dec).unwrap();
        assert!(dec.is_exhausted());
        assert_eq!(restored.events(), r.events());
        assert_eq!(restored.recorded(), r.recorded());
        assert_eq!(restored.overwritten(), r.overwritten());
        assert_eq!(restored.sampled_out(), r.sampled_out());
        // Future pushes continue the same sampling phase and seq stream.
        r.push(1000, issue(0x999));
        restored.push(1000, issue(0x999));
        assert_eq!(restored.events(), r.events());
        // Truncated payloads are typed errors, never panics.
        for n in 0..bytes.len() {
            let mut fresh = TraceRing::new(r.config().clone());
            let mut d = cdp_snap::Dec::new(&bytes[..n]);
            assert!(fresh.restore_state(&mut d).is_err(), "prefix {n}");
        }
    }

    #[test]
    fn event_json_shape() {
        let e = TraceEvent {
            seq: 3,
            at: 99,
            data: TraceData::VamReject {
                word: 0x1000_1200,
                cause: VamCause::Filter,
            },
        };
        let j = e.to_json();
        assert_eq!(j.get("seq").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("event").unwrap().as_str(), Some("vam_reject"));
        assert_eq!(j.get("cause").unwrap().as_str(), Some("filter"));
        assert_eq!(j.get("word").unwrap().as_str(), Some("0x10001200"));
        // Round-trips through the parser.
        assert!(crate::json::Json::parse(&j.to_string()).is_ok());
    }
}
