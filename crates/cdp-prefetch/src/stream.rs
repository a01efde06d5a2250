//! Stream buffers (Jouppi, ISCA 1990) — the paper's reference \[11\].
//!
//! A small set of sequential prefetch streams: each L1 miss either extends
//! an existing stream (the miss address falls just past a stream's head)
//! or, on repeated nearby misses, allocates a new stream that runs a few
//! lines ahead. Included as a second classical baseline so downstream
//! users can compare the content prefetcher against both PC-indexed
//! stride prediction and address-window streaming.

pub use cdp_types::StreamConfig;
use cdp_types::{VirtAddr, LINE_SIZE};

use crate::{Prefetcher, PrefetchRequest};

#[derive(Clone, Copy, Debug)]
struct Stream {
    /// Next expected miss line.
    next_line: u32,
    /// Lines already requested beyond `next_line`.
    prefetched_to: u32,
    /// LRU stamp.
    stamp: u64,
    /// Confirmations (hits on the expected line).
    confidence: u8,
}

/// Cumulative stream-buffer statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// L1 misses observed.
    pub observed: u64,
    /// Misses that confirmed an existing stream.
    pub confirmed: u64,
    /// Streams (re)allocated.
    pub allocated: u64,
    /// Prefetch requests emitted.
    pub emitted: u64,
}

impl StreamStats {
    /// Serializes every counter (declaration order).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.observed);
        enc.u64(self.confirmed);
        enc.u64(self.allocated);
        enc.u64(self.emitted);
    }

    /// Restores counters written by [`StreamStats::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        self.observed = dec.u64("stream stats observed")?;
        self.confirmed = dec.u64("stream stats confirmed")?;
        self.allocated = dec.u64("stream stats allocated")?;
        self.emitted = dec.u64("stream stats emitted")?;
        Ok(())
    }
}

/// The stream-buffer prefetcher.
///
/// # Examples
///
/// ```
/// use cdp_prefetch::{Prefetcher, StreamPrefetcher, StreamConfig};
/// use cdp_types::VirtAddr;
///
/// let mut sb = StreamPrefetcher::new(&StreamConfig::default());
/// let mut out = Vec::new();
/// // Sequential misses confirm a stream, which then runs ahead.
/// for i in 0..4u32 {
///     out.clear();
///     sb.on_l1_miss(0, VirtAddr(0x1000_0000 + i * 64), &mut out);
/// }
/// assert!(!out.is_empty(), "a confirmed stream prefetches ahead");
/// ```
#[derive(Clone, Debug)]
pub struct StreamPrefetcher {
    streams: Vec<Stream>,
    max_streams: usize,
    depth: u32,
    clock: u64,
    stats: StreamStats,
}

impl StreamPrefetcher {
    /// Creates a stream prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.streams` is zero.
    pub fn new(cfg: &StreamConfig) -> Self {
        assert!(cfg.streams > 0, "need at least one stream");
        StreamPrefetcher {
            streams: Vec::with_capacity(cfg.streams),
            max_streams: cfg.streams,
            depth: cfg.depth.max(1),
            clock: 0,
            stats: StreamStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Active stream count.
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    /// Observes one L1 miss; emits stream prefetches.
    pub fn observe(&mut self, vaddr: VirtAddr, out: &mut Vec<PrefetchRequest>) {
        self.stats.observed += 1;
        self.clock += 1;
        let clock = self.clock;
        let line = vaddr.line().0 / LINE_SIZE as u32;
        // Confirm an existing stream?
        if let Some(s) = self.streams.iter_mut().find(|s| s.next_line == line) {
            s.stamp = clock;
            s.confidence = s.confidence.saturating_add(1);
            s.next_line = line + 1;
            self.stats.confirmed += 1;
            // Run ahead: request up to `depth` lines past the confirmation
            // (the confirmed line itself is being demand-fetched already).
            let target = line + self.depth;
            s.prefetched_to = s.prefetched_to.max(line);
            let mut emitted = 0;
            while s.prefetched_to < target {
                s.prefetched_to += 1;
                out.push(PrefetchRequest::stride(VirtAddr(
                    s.prefetched_to * LINE_SIZE as u32,
                )));
                emitted += 1;
            }
            self.stats.emitted += emitted;
            return;
        }
        // Near-miss of an existing stream head (line already prefetched):
        // treat as confirmation without extension.
        if self
            .streams
            .iter_mut()
            .any(|s| line > s.next_line.saturating_sub(self.depth) && line <= s.prefetched_to)
        {
            self.stats.confirmed += 1;
            return;
        }
        // Allocate a new stream expecting the sequentially next line.
        self.stats.allocated += 1;
        let stream = Stream {
            next_line: line + 1,
            prefetched_to: line,
            stamp: clock,
            confidence: 0,
        };
        if self.streams.len() < self.max_streams {
            self.streams.push(stream);
        } else {
            let victim = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| (s.confidence, s.stamp))
                .map(|(i, _)| i)
                .expect("non-empty");
            self.streams[victim] = stream;
        }
    }

    /// Serializes the stream table in resident order (victim selection
    /// depends on position for ties, so order is preserved verbatim).
    pub fn save_state(&self, enc: &mut cdp_snap::Enc) {
        enc.u64(self.clock);
        self.stats.save_state(enc);
        enc.seq_len(self.streams.len());
        for s in &self.streams {
            enc.u32(s.next_line);
            enc.u32(s.prefetched_to);
            enc.u64(s.stamp);
            enc.u8(s.confidence);
        }
    }

    /// Restores state written by [`StreamPrefetcher::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`cdp_types::SnapshotError`] on truncation or more
    /// streams than the configured maximum.
    pub fn restore_state(
        &mut self,
        dec: &mut cdp_snap::Dec<'_>,
    ) -> Result<(), cdp_types::SnapshotError> {
        self.clock = dec.u64("stream clock")?;
        self.stats.restore_state(dec)?;
        let n = dec.seq_len(4 + 4 + 8 + 1, "stream count")?;
        if n > self.max_streams {
            return Err(cdp_types::SnapshotError::Corrupt {
                context: "stream count",
            });
        }
        self.streams.clear();
        for _ in 0..n {
            self.streams.push(Stream {
                next_line: dec.u32("stream next_line")?,
                prefetched_to: dec.u32("stream prefetched_to")?,
                stamp: dec.u64("stream stamp")?,
                confidence: dec.u8("stream confidence")?,
            });
        }
        Ok(())
    }
}

impl Prefetcher for StreamPrefetcher {
    fn on_l1_miss(&mut self, _pc: u32, vaddr: VirtAddr, out: &mut Vec<PrefetchRequest>) {
        self.observe(vaddr, out);
    }

    /// Per stream: 4-byte expected line, 4-byte prefetched-to line, and
    /// a 1-byte confidence counter.
    fn budget_bytes(&self) -> usize {
        self.max_streams * 9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn misses(sb: &mut StreamPrefetcher, addrs: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        for &a in addrs {
            sb.observe(VirtAddr(a), &mut out);
        }
        out.iter().map(|r| r.vaddr.0).collect()
    }

    #[test]
    fn sequential_misses_spawn_a_running_stream() {
        let mut sb = StreamPrefetcher::new(&StreamConfig::default());
        let reqs = misses(&mut sb, &[0x1000, 0x1040, 0x1080]);
        assert!(!reqs.is_empty());
        // Each prefetch targets a line past the miss that triggered it.
        assert!(reqs.iter().all(|&a| a > 0x1040), "{reqs:?}");
        assert!(reqs.iter().any(|&a| a > 0x1080), "runs ahead: {reqs:?}");
        assert_eq!(sb.stats().confirmed, 2);
    }

    #[test]
    fn stream_runs_depth_lines_ahead() {
        let mut sb = StreamPrefetcher::new(&StreamConfig {
            streams: 2,
            depth: 3,
        });
        let reqs = misses(&mut sb, &[0x0, 0x40]);
        // One confirmation: prefetched through line 1+3 = addresses
        // 0x80, 0xc0, 0x100.
        assert_eq!(reqs, vec![0x80, 0xc0, 0x100]);
        // Next miss at 0x80 is already covered: no duplicates, stream
        // slides forward.
        let reqs2 = misses(&mut sb, &[0x80]);
        assert_eq!(reqs2, vec![0x140]);
    }

    #[test]
    fn random_misses_do_not_stream() {
        let mut sb = StreamPrefetcher::new(&StreamConfig::default());
        let reqs = misses(&mut sb, &[0x0, 0x4000, 0x9000, 0x20000, 0x55000]);
        assert!(reqs.is_empty());
        assert_eq!(sb.stats().confirmed, 0);
    }

    #[test]
    fn stream_capacity_is_bounded_with_lru_replacement() {
        let mut sb = StreamPrefetcher::new(&StreamConfig {
            streams: 2,
            depth: 2,
        });
        // Three distinct regions: only two streams may exist.
        misses(&mut sb, &[0x0, 0x10000, 0x20000]);
        assert_eq!(sb.active_streams(), 2);
        assert_eq!(sb.stats().allocated, 3);
    }

    #[test]
    fn near_miss_within_prefetched_window_confirms_silently() {
        let mut sb = StreamPrefetcher::new(&StreamConfig {
            streams: 2,
            depth: 4,
        });
        // Confirm a stream (prefetched through line 5).
        misses(&mut sb, &[0x0, 0x40]);
        let confirmed_before = sb.stats().confirmed;
        // A miss that skips ahead inside the prefetched window (line 3)
        // confirms without emitting duplicates.
        let reqs = misses(&mut sb, &[0xc0]);
        assert!(reqs.is_empty(), "{reqs:?}");
        assert_eq!(sb.stats().confirmed, confirmed_before + 1);
        assert_eq!(sb.active_streams(), 1, "no spurious allocation");
    }

    #[test]
    fn interleaved_streams_both_progress() {
        let mut sb = StreamPrefetcher::new(&StreamConfig {
            streams: 4,
            depth: 2,
        });
        let reqs = misses(
            &mut sb,
            &[0x0, 0x10000, 0x40, 0x10040, 0x80, 0x10080],
        );
        let low: Vec<u32> = reqs.iter().copied().filter(|&a| a < 0x10000).collect();
        let high: Vec<u32> = reqs.iter().copied().filter(|&a| a >= 0x10000).collect();
        assert!(!low.is_empty() && !high.is_empty(), "{reqs:?}");
    }
}
