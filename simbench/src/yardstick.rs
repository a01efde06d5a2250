//! The host-speed yardstick.
//!
//! The benchmark runs on a few cores of a shared host whose speed for the
//! simulator swings by up to 2× within seconds, with what its neighbours
//! run, so raw host times from one run and the next differ by more than
//! most optimisations change them. The yardstick is a fixed kernel,
//! frozen in the benchmark and independent of the simulator's code, that
//! does the kind of work the simulator does: set-associative tag lookups
//! with LRU victim scans, a pointer chase and a ring of dependent values.
//! Its rate at a moment, over [`NOMINAL_MOPS`], is the host's speed at
//! that moment; a host time multiplied by the mean speed over it, raised
//! to [`SENSITIVITY`], is the time the same work takes at the nominal
//! speed.
//!
//! * [`Meter`] keeps a yardstick on the measuring thread and reads it
//!   between laps a few tens of milliseconds apart, so each lap is scaled
//!   by readings taken right around it.
//! * [`Gauge`] reads fresh yardsticks on every thread between sections
//!   that keep all threads busy (the sweep's pool batches).
//!
//! Neither counts the yardstick's own pages in the peak resident set.

use std::time::Instant;

/// The kernel's rate on the reference machine, in million operations per
/// second: its typical [`Meter`] reading on a 2-vCPU Intel Xeon (Sapphire
/// Rapids) KVM guest. Nominal times are host times at this rate.
pub const NOMINAL_MOPS: f64 = 32.0;

/// How much more the simulator's speed moves than the yardstick's: over
/// several hundred laps on the reference machine, the least-squares slope
/// of log simulator speed on log yardstick speed was 1.2–1.5 (both
/// regressions, chase-cdp and compute-base). A host time is scaled by the
/// host speed to this power.
pub const SENSITIVITY: f64 = 1.25;

/// Operations per [`Meter`] reading (about 2 ms).
const METER_OPS: u64 = 60_000;

/// Operations per thread and [`Gauge`] reading (about 30 ms).
const GAUGE_OPS: u64 = 1_000_000;

/// Untimed operations on a fresh yardstick, to fill its tag arrays.
const WARMUP_OPS: u64 = 250_000;

/// Words of the pointer table.
const MEM_WORDS: usize = 1 << 16;
/// Sets of the first-level and second-level tag arrays.
const L1_SETS: usize = 64;
const L2_SETS: usize = 4096;
/// Ways of both tag arrays.
const WAYS: usize = 8;
/// Words of the whole kernel state: pointer table, then tags and recency
/// stamps of both levels.
const WORDS: usize = MEM_WORDS + 2 * WAYS * (L1_SETS + L2_SETS);

/// One measured stretch of host time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Lap {
    /// Host seconds.
    pub host_s: f64,
    /// The same stretch at the nominal speed.
    pub nominal_s: f64,
}

impl std::ops::AddAssign for Lap {
    fn add_assign(&mut self, other: Lap) {
        self.host_s += other.host_s;
        self.nominal_s += other.nominal_s;
    }
}

/// A yardstick kept on the measuring thread and read between laps.
///
/// [`Meter::lap`] ends the stretch of host time since the previous lap,
/// reads the yardstick and scales the stretch by the readings before and
/// after it. Readings fall between laps, so no lap contains one.
pub struct Meter {
    stick: Yardstick,
    last: f64,
    mark: Instant,
    readings: Vec<f64>,
}

impl Meter {
    /// Maps and warms a yardstick, takes the first reading and resets the
    /// peak resident set.
    pub fn new() -> Meter {
        let mut stick = Yardstick::new();
        let last = stick.read(METER_OPS);
        restart_peak_rss();
        Meter {
            stick,
            last,
            mark: Instant::now(),
            readings: vec![last],
        }
    }

    /// Ends a lap and starts the next.
    pub fn lap(&mut self) -> Lap {
        let host_s = self.mark.elapsed().as_secs_f64();
        let speed = self.stick.read(METER_OPS);
        let lap = Lap {
            host_s,
            nominal_s: host_s * factor(self.last, speed),
        };
        self.last = speed;
        self.readings.push(speed);
        self.mark = Instant::now();
        lap
    }

    /// Every reading so far: host speed over nominal.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }

    /// Peak resident set since [`Meter::new`] in MiB, without the
    /// yardstick's pages (resident all along).
    pub fn peak_rss_mb(&self) -> f64 {
        crate::report::peak_rss_mb() - (WORDS * 8) as f64 / f64::from(1u32 << 20)
    }
}

impl Default for Meter {
    fn default() -> Meter {
        Meter::new()
    }
}

/// Readings on several threads between sections that keep them all busy.
///
/// Each section is timed on the host and scaled by the readings taken
/// right before and right after it. The yardsticks are
/// mapped for each reading and unmapped after it, and each section
/// restarts the peak resident set, so their pages are not counted.
#[derive(Debug)]
pub struct Gauge {
    threads: usize,
    last: f64,
    readings: Vec<f64>,
    peak_rss_mb: f64,
}

impl Gauge {
    /// A gauge for sections that keep `threads` threads busy; takes the
    /// first reading.
    pub fn new(threads: usize) -> Gauge {
        let last = read_on_threads(threads);
        Gauge {
            threads,
            last,
            readings: vec![last],
            peak_rss_mb: 0.0,
        }
    }

    /// Runs `f` as one section.
    pub fn section<T>(&mut self, f: impl FnOnce() -> T) -> (T, Lap) {
        restart_peak_rss();
        let t = Instant::now();
        let value = f();
        let host_s = t.elapsed().as_secs_f64();
        self.peak_rss_mb = self.peak_rss_mb.max(crate::report::peak_rss_mb());
        let speed = read_on_threads(self.threads);
        let lap = Lap {
            host_s,
            nominal_s: host_s * factor(self.last, speed),
        };
        self.last = speed;
        self.readings.push(speed);
        (value, lap)
    }

    /// Every reading so far: host speed over nominal.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }

    /// Peak resident set of the sections so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_mb
    }
}

/// Nominal seconds per host second between readings `before` and
/// `after`.
fn factor(before: f64, after: f64) -> f64 {
    ((before + after) / 2.0).powf(SENSITIVITY)
}

/// Resets the kernel's high-water mark of the resident set to the
/// current resident set (`/proc/self/clear_refs`, value 5). Where that is
/// not allowed the mark keeps counting from the start of the process.
fn restart_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A fresh yardstick read on each of `threads` threads at once: the mean
/// speed over nominal.
fn read_on_threads(threads: usize) -> f64 {
    let read = || Yardstick::new().read(GAUGE_OPS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(read)).collect();
        let n = handles.len() as f64;
        handles
            .into_iter()
            .map(|h| h.join().expect("yardstick thread panicked"))
            .sum::<f64>()
            / n
    })
}

/// The kernel and its state.
struct Yardstick {
    region: Region,
    rob: [u64; 64],
    clock: u64,
}

impl Yardstick {
    /// Maps and fills the state, then warms it up.
    fn new() -> Yardstick {
        let mut region = Region::map(WORDS);
        let (mem, tags) = region.words().split_at_mut(MEM_WORDS);
        let mut x: u64 = 777;
        for w in mem.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        let (l1, l2) = tags.split_at_mut(2 * WAYS * L1_SETS);
        for (level, sets) in [(l1, L1_SETS), (l2, L2_SETS)] {
            let (t, stamps) = level.split_at_mut(WAYS * sets);
            t.fill(u64::MAX);
            stamps.fill(0);
        }
        let mut stick = Yardstick {
            region,
            rob: [0; 64],
            clock: 0,
        };
        stick.run(WARMUP_OPS);
        stick
    }

    /// Times `ops` operations: host speed over nominal.
    fn read(&mut self, ops: u64) -> f64 {
        let t = Instant::now();
        self.run(ops);
        ops as f64 / t.elapsed().as_secs_f64() / 1e6 / NOMINAL_MOPS
    }

    /// `ops` operations: one address (a quarter pointer-chased, the rest
    /// sequential) looked up in both levels, and one dependent value.
    fn run(&mut self, ops: u64) {
        let (mem, tags) = self.region.words().split_at_mut(MEM_WORDS);
        let (l1, l2) = tags.split_at_mut(2 * WAYS * L1_SETS);
        let mut l1 = Level::new(l1, L1_SETS);
        let mut l2 = Level::new(l2, L2_SETS);
        let mask = mem.len() - 1;
        let mut ptr = 0usize;
        let mut seq = 0u64;
        let mut misses = 0u64;
        for i in 0..ops {
            self.clock += 1;
            let r = mem[(i as usize).wrapping_mul(7919) & mask];
            let addr = if r & 3 == 0 {
                ptr = mem[ptr] as usize & mask;
                ptr as u64 * 8
            } else {
                seq += 8;
                seq & 0xff_ffff
            };
            let line = addr >> 6;
            if !l1.lookup(line, self.clock) && !l2.lookup(line, self.clock) {
                misses += 1;
            }
            let slot = (i & 63) as usize;
            let dep = self.rob[(slot + 61) & 63];
            self.rob[slot] = if r & 16 == 0 {
                dep.wrapping_add(r)
            } else {
                dep ^ (r >> 3)
            };
        }
        std::hint::black_box(misses);
    }
}

/// A set-associative tag array with LRU replacement.
struct Level<'a> {
    tags: &'a mut [u64],
    stamps: &'a mut [u64],
    sets: usize,
}

impl<'a> Level<'a> {
    fn new(words: &'a mut [u64], sets: usize) -> Level<'a> {
        let (tags, stamps) = words.split_at_mut(WAYS * sets);
        Level { tags, stamps, sets }
    }

    /// Looks `line` up, filling it over the least recently used way on a
    /// miss. Returns whether it hit.
    #[inline(never)]
    fn lookup(&mut self, line: u64, clock: u64) -> bool {
        let base = (line as usize & (self.sets - 1)) * WAYS;
        for w in base..base + WAYS {
            if self.tags[w] == line {
                self.stamps[w] = clock;
                return true;
            }
        }
        let mut victim = base;
        for w in base + 1..base + WAYS {
            if self.stamps[w] < self.stamps[victim] {
                victim = w;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = clock;
        false
    }
}

/// Anonymous memory mapped for a yardstick and unmapped when dropped, so
/// it leaves the resident set (the allocator could keep freed heap pages
/// resident).
struct Region {
    ptr: *mut u64,
    words: usize,
}

const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 2;
const MAP_ANONYMOUS: i32 = 0x20;

extern "C" {
    fn mmap(
        addr: *mut std::ffi::c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut std::ffi::c_void;
    fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
}

impl Region {
    fn map(words: usize) -> Region {
        // SAFETY: a fresh private anonymous mapping aliases nothing.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                words * 8,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            ptr as isize != -1 && !ptr.is_null(),
            "yardstick: mmap of {} bytes failed",
            words * 8
        );
        Region {
            ptr: ptr.cast(),
            words,
        }
    }

    fn words(&mut self) -> &mut [u64] {
        // SAFETY: the mapping is `words` page-aligned u64s, owned by
        // `self` and borrowed mutably here.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.words) }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the mapping made in `map`; no borrow of
        // it outlives `self`.
        unsafe {
            munmap(self.ptr.cast(), self.words * 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_scale_by_the_readings_around_them() {
        let mut m = Meter::new();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let before = m.readings()[0];
        let lap = m.lap();
        let after = m.readings()[1];
        assert!(before > 0.0 && after > 0.0);
        assert!(lap.host_s >= 0.02);
        assert_eq!(lap.nominal_s, lap.host_s * factor(before, after));
        assert!(m.peak_rss_mb() > 0.0);
    }

    #[test]
    fn sections_scale_by_the_readings_around_them() {
        let mut g = Gauge::new(2);
        let ((), lap) = g.section(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        let r = g.readings();
        assert!(lap.host_s >= 0.02);
        assert_eq!(lap.nominal_s, lap.host_s * factor(r[0], r[1]));
        assert!(g.peak_rss_mb() > 0.0);
    }

    #[test]
    fn unmapped_pages_leave_the_resident_set() {
        // Tests on other threads move the resident set too, so one clean
        // drop in a few tries shows it.
        let released = (0..5).any(|_| {
            let stick = Yardstick::new();
            let mapped = resident_kb();
            drop(stick);
            resident_kb() + 512 < mapped
        });
        assert!(released, "yardstick pages stayed resident");
    }

    fn resident_kb() -> u64 {
        std::fs::read_to_string("/proc/self/status")
            .unwrap()
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap()
    }
}
