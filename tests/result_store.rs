//! Persistent result store contract (DESIGN.md §14).
//!
//! The store's promise mirrors the snapshot codec's (DESIGN.md §12):
//! every way an entry file can be damaged on disk — truncation, bit
//! flips, foreign magic, an entry published under the wrong cell key, a
//! future format version — must surface as a typed error from `check`,
//! quarantine the file on `get`, and fall back to recomputation. No file
//! contents may ever panic the decoder or replay corrupt data.

use std::path::PathBuf;
use std::sync::Arc;

use cdp::sim::fault::{corrupt_pointer_words, unmap_trace_pages};
use cdp::sim::{
    decode_result, encode_result, JobObs, ObsSink, PollutionConfig, ResultCache, SimJob, WalkFault,
};
use cdp::snap::SnapWriter;
use cdp::store::{clean_stale_parts, RealIo, ResultStore, ENTRY_VERSION, TAG_META, TAG_PAYLOAD};
use cdp::types::{ObsConfig, SnapshotError, StoreError, SystemConfig};
use cdp::workloads::suite::Benchmark;
use cdp_testutil::{tiny_workload, ScratchDir};

/// Prefix of this suite's scratch directories.
const SCRATCH: &str = "cdp-result-store";

fn entry_path(root: &std::path::Path, key: u64) -> PathBuf {
    root.join(format!("cell-{key:016x}.res"))
}

fn quarantine_count(root: &std::path::Path) -> usize {
    std::fs::read_dir(root.join("quarantine"))
        .map(|d| d.count())
        .unwrap_or(0)
}

#[test]
fn roundtrip_replays_across_process_equivalent_handles() {
    let dir = ScratchDir::new(SCRATCH, "roundtrip");
    let key = 0xdead_beef_0042_0001;
    let payload = b"paper table cell bytes".to_vec();
    {
        let store = ResultStore::open(&*dir).expect("open store");
        store.put(key, &payload);
        assert_eq!(store.stats().write_failures, 0);
    }
    // A brand-new handle — the cross-process warm path.
    let store = ResultStore::open(&*dir).expect("reopen store");
    assert_eq!(store.get(key).as_deref(), Some(&payload[..]));
    assert_eq!(store.get(0x0bad_0bad), None, "absent key is a miss");
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.quarantined), (1, 1, 0));
}

/// Every corruption mode quarantines on `get` (miss, file moved aside,
/// never replayed) and a re-`put` recomputed entry replays cleanly.
#[test]
fn corruption_matrix_quarantines_and_recomputes() {
    let key = 0x0123_4567_89ab_cdef;
    let payload = b"stats payload".to_vec();
    type Damage = Box<dyn Fn(&PathBuf)>;
    let damage: Vec<(&str, Damage)> = vec![
        (
            "bit-flip",
            Box::new(|p: &PathBuf| {
                let mut bytes = std::fs::read(p).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x10;
                std::fs::write(p, bytes).unwrap();
            }),
        ),
        (
            "truncation",
            Box::new(|p: &PathBuf| {
                let bytes = std::fs::read(p).unwrap();
                std::fs::write(p, &bytes[..bytes.len() / 2]).unwrap();
            }),
        ),
        (
            "bad-magic",
            Box::new(|p: &PathBuf| {
                let mut bytes = std::fs::read(p).unwrap();
                bytes[0] ^= 0xff;
                std::fs::write(p, bytes).unwrap();
            }),
        ),
        (
            "empty-file",
            Box::new(|p: &PathBuf| {
                std::fs::write(p, b"").unwrap();
            }),
        ),
    ];
    for (name, damage) in damage {
        let dir = ScratchDir::new(SCRATCH, &format!("matrix-{name}"));
        let store = ResultStore::open(&*dir).expect("open store");
        store.put(key, &payload);
        let path = entry_path(&dir, key);
        damage(&path);
        assert!(
            store.check(key).is_err(),
            "{name}: damaged entry must be a typed error, got Ok"
        );
        assert_eq!(store.get(key), None, "{name}: damaged entry is a miss");
        assert!(!path.exists(), "{name}: damaged entry moved aside");
        assert_eq!(quarantine_count(&dir), 1, "{name}: quarantined");
        // Recompute path: the caller re-puts and the store replays again.
        store.put(key, &payload);
        assert_eq!(store.get(key).as_deref(), Some(&payload[..]), "{name}");
        let s = store.stats();
        assert_eq!((s.misses, s.quarantined), (1, 1), "{name}: counters");
    }
}

#[test]
fn wrong_fingerprint_is_typed_and_quarantined() {
    let dir = ScratchDir::new(SCRATCH, "wrong-key");
    let store = ResultStore::open(&*dir).expect("open store");
    let (key_a, key_b) = (0x1111_1111_1111_1111, 0x2222_2222_2222_2222);
    store.put(key_a, b"cell A");
    // Publish A's (internally valid) entry under B's name — the cell-key
    // fingerprint in the header catches the mismatch at parse.
    std::fs::copy(entry_path(&dir, key_a), entry_path(&dir, key_b)).unwrap();
    match store.check(key_b) {
        Err(StoreError::Entry(SnapshotError::FingerprintMismatch { expected, found })) => {
            assert_eq!(expected, key_b);
            assert_eq!(found, key_a);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    assert_eq!(store.get(key_b), None);
    assert_eq!(quarantine_count(&dir), 1);
    // The donor entry is untouched.
    assert_eq!(store.get(key_a).as_deref(), Some(&b"cell A"[..]));
}

#[test]
fn future_entry_version_is_typed_and_quarantined() {
    let dir = ScratchDir::new(SCRATCH, "version-skew");
    let store = ResultStore::open(&*dir).expect("open store");
    // Hand-craft entries from one format version ahead, and from version
    // 0, which no build ever wrote: valid envelope, valid checksums,
    // unreadable meaning.
    for (n, (key, version)) in [
        (0x3333_3333_3333_3333, ENTRY_VERSION + 1),
        (0x4444_4444_4444_4444, 0),
    ]
    .into_iter()
    .enumerate()
    {
        let mut w = SnapWriter::new(key);
        w.section(TAG_META, |e| {
            e.u32(version);
            e.u64(1);
        });
        w.section(TAG_PAYLOAD, |e| e.bytes(b"from another format"));
        std::fs::write(entry_path(&dir, key), w.finish()).unwrap();
        match store.check(key) {
            Err(StoreError::Entry(SnapshotError::UnsupportedVersion { found, supported })) => {
                assert_eq!(found, version);
                assert_eq!(supported, ENTRY_VERSION);
            }
            other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
        }
        assert_eq!(store.get(key), None, "version {version} must not replay");
        assert_eq!(quarantine_count(&dir), n + 1);
    }
}

#[test]
fn stale_parts_are_swept_on_open_and_by_fsck() {
    let dir = ScratchDir::new(SCRATCH, "stale-parts");
    // Litter from a writer killed between write and rename.
    std::fs::write(dir.join("cell-0000000000000001.123-0.part"), b"torn").unwrap();
    std::fs::write(dir.join("cell-0000000000000002.123-1.part"), b"torn").unwrap();
    let store = ResultStore::open(&*dir).expect("open sweeps parts");
    let leftover: Vec<_> = std::fs::read_dir(&*dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("part"))
        .collect();
    assert!(leftover.is_empty(), "open swept .part litter: {leftover:?}");
    // And the shared helper works on arbitrary dirs (checkpoint dirs).
    let side = ScratchDir::new(SCRATCH, "stale-parts-side");
    std::fs::write(side.join("ckpt-1.part"), b"torn").unwrap();
    std::fs::write(side.join("ckpt-1.snap"), b"published").unwrap();
    assert_eq!(clean_stale_parts(&RealIo, &side), 1);
    assert!(
        side.join("ckpt-1.snap").exists(),
        "published file untouched"
    );
    drop(store);
}

#[test]
fn fsck_reports_and_repairs_then_is_clean() {
    let dir = ScratchDir::new(SCRATCH, "fsck");
    let store = ResultStore::open(&*dir).expect("open store");
    store.put(1, b"good one");
    store.put(2, b"good two");
    store.put(3, b"will break");
    let victim = entry_path(&dir, 3);
    let mut bytes = std::fs::read(&victim).unwrap();
    let len = bytes.len();
    bytes[len - 1] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();
    std::fs::write(dir.join("cell-0000000000000009.42-0.part"), b"torn").unwrap();

    let report = store.fsck(false).expect("read-only fsck");
    assert_eq!(report.valid, 2);
    assert_eq!(report.corrupt.len(), 1);
    assert_eq!(report.stale_parts, 1);
    assert!(!report.is_clean());
    assert!(victim.exists(), "read-only fsck does not move files");

    let report = store.fsck(true).expect("repairing fsck");
    assert_eq!(report.corrupt.len(), 1);
    assert!(!victim.exists(), "repair quarantines the damaged entry");

    let report = store.fsck(false).expect("post-repair fsck");
    assert!(report.is_clean(), "store clean after repair: {report:?}");
    assert_eq!(report.valid, 2);
}

#[test]
fn gc_drops_entries_older_than_kept_generations() {
    let dir = ScratchDir::new(SCRATCH, "gc");
    {
        let old = ResultStore::open(&*dir).expect("gen 1");
        old.put(10, b"old entry");
    }
    // Two more opens bump the generation twice; keep=1 then reaches back
    // only one generation, so the gen-1 entry falls out.
    let _mid = ResultStore::open(&*dir).expect("gen 2");
    let store = ResultStore::open(&*dir).expect("gen 3");
    store.put(11, b"fresh entry");
    let removed = store.gc(1).expect("gc");
    assert_eq!(removed, 1, "exactly the old entry collected");
    assert_eq!(store.get(10), None);
    assert_eq!(store.get(11).as_deref(), Some(&b"fresh entry"[..]));
}

/// End-to-end through the sim layer: a real cell's `RunStats` +
/// `Observation` survive the encode → store → decode round trip, and a
/// store-backed `ResultCache` in a fresh process-equivalent replays the
/// cell from disk with identical results.
#[test]
fn real_cell_roundtrips_through_store_backed_cache() {
    let dir = ScratchDir::new(SCRATCH, "real-cell");
    let w = Arc::new(tiny_workload(Benchmark::Slsb, 7));
    let cfg = cdp::types::SystemConfig::with_content();
    let key = 0x5eed_0000_0000_0001;

    let reference = SimJob::new("cell", cfg.clone(), Arc::clone(&w))
        .try_execute()
        .expect("reference run");

    // Cold pass: computes and persists.
    {
        let store = Arc::new(ResultStore::open(&*dir).expect("open store"));
        let cache = Arc::new(ResultCache::with_store(Arc::clone(&store)));
        let stats = SimJob::new("cell", cfg.clone(), Arc::clone(&w))
            .with_result_cache(Arc::clone(&cache), key)
            .try_execute()
            .expect("cold run");
        assert_eq!(format!("{reference:?}"), format!("{stats:?}"));
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (0, 1), "cold pass misses then persists");
    }

    // Warm pass, fresh handle and fresh (empty) L1: replays from disk.
    let store = Arc::new(ResultStore::open(&*dir).expect("reopen store"));
    let cache = Arc::new(ResultCache::with_store(Arc::clone(&store)));
    let stats = SimJob::new("cell", cfg, Arc::clone(&w))
        .with_result_cache(Arc::clone(&cache), key)
        .try_execute()
        .expect("warm run");
    assert_eq!(
        format!("{reference:?}"),
        format!("{stats:?}"),
        "replayed cell diverged from computed cell"
    );
    let s = store.stats();
    assert_eq!((s.hits, s.misses), (1, 0), "warm pass replays every cell");

    // The persisted payload itself decodes with the sim codec.
    let payload = store.get(key).expect("payload present");
    let (decoded, obs) = decode_result(&payload).expect("payload decodes");
    assert_eq!(format!("{reference:?}"), format!("{decoded:?}"));
    assert_eq!(
        payload,
        encode_result(&decoded, obs.as_ref()),
        "re-encode is stable"
    );
}

/// The run fingerprint is the cell's identity: it moves with every edit
/// a fault plan makes to the image and with every attachment, so no
/// stored result of one setup can be replayed for another.
#[test]
fn cell_key_covers_image_edits_and_attachments() {
    let clean = tiny_workload(Benchmark::Tpcc1, 7);
    let job = SimJob::new(
        "cell",
        SystemConfig::with_content(),
        Arc::new(clean.clone()),
    );
    let key = job.key(clean.fingerprint());

    let mut corrupted = clean.clone();
    assert!(
        corrupt_pointer_words(&mut corrupted, 7, 64) > 0,
        "corrupted"
    );
    assert_ne!(key, job.key(corrupted.fingerprint()), "corrupted image");
    let mut unmapped = clean.clone();
    assert!(unmap_trace_pages(&mut unmapped, 7, 2) > 0, "unmapped");
    assert_ne!(key, job.key(unmapped.fingerprint()), "unmapped pages");

    let walk = job.clone().with_walk_fault(WalkFault {
        period: 7,
        demand: false,
    });
    assert_ne!(key, walk.key(clean.fingerprint()), "walk fault");
    let mut polluted = job.clone();
    polluted.pollution = Some(PollutionConfig { period: 64 });
    assert_ne!(key, polluted.key(clean.fingerprint()), "pollution");
}

/// An observed job over `w` under `cfg`, delivering into `sink`.
fn observed(w: &Arc<cdp::workloads::Workload>, cfg: ObsConfig, sink: &Arc<ObsSink>) -> SimJob {
    SimJob::new("cell", SystemConfig::with_content(), Arc::clone(w)).with_obs(JobObs {
        cfg,
        sink: Arc::clone(sink),
        batch: 0,
        index: 0,
    })
}

/// Metrics windows of `metrics_window` uops, nothing else observed.
fn windows(metrics_window: u64) -> ObsConfig {
    ObsConfig {
        trace: None,
        metrics_window: Some(metrics_window),
        profile_hist: false,
    }
}

/// An observation is keyed by its `ObsConfig` too: a job observing with
/// B over a cache that holds A's observation of the same cell simulates
/// and delivers B's windows, not A's.
#[test]
fn observed_job_never_replays_another_configs_observation() {
    let w = Arc::new(tiny_workload(Benchmark::Slsb, 7));
    let key =
        SimJob::new("cell", SystemConfig::with_content(), Arc::clone(&w)).key(w.fingerprint());
    let (a, b) = (windows(8_192), windows(2_048));
    let reference = ObsSink::shared();
    observed(&w, b.clone(), &reference)
        .try_execute()
        .expect("reference");
    let want = reference.drain_sorted().remove(0).observation.windows;

    let cache = Arc::new(ResultCache::new());
    let got = [a, b].map(|cfg| {
        let sink = ObsSink::shared();
        observed(&w, cfg, &sink)
            .with_result_cache(Arc::clone(&cache), key)
            .try_execute()
            .expect("observed run");
        sink.drain_sorted().remove(0).observation.windows
    });
    assert_eq!((cache.hits(), cache.misses()), (0, 2), "B re-simulated");
    let got = &got[1];
    assert_ne!(got.len(), 0);
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "B's windows");
}

/// Stats stay under the run fingerprint: a plain job replays, from a
/// fresh store handle, the stats an observed job stored.
#[test]
fn plain_job_replays_stats_an_observed_job_stored() {
    let dir = ScratchDir::new(SCRATCH, "observed-then-plain");
    let w = Arc::new(tiny_workload(Benchmark::Slsb, 7));
    let plain = SimJob::new("cell", SystemConfig::with_content(), Arc::clone(&w));
    let key = plain.key(w.fingerprint());
    let cache = || {
        Arc::new(ResultCache::with_store(Arc::new(
            ResultStore::open(&*dir).unwrap(),
        )))
    };

    let observed_stats = observed(&w, windows(2_048), &ObsSink::shared())
        .with_result_cache(cache(), key)
        .try_execute()
        .expect("observed run");
    let warm = cache();
    let stats = plain
        .with_result_cache(Arc::clone(&warm), key)
        .try_execute()
        .expect("plain run");
    assert_eq!((warm.hits(), warm.misses()), (1, 0), "plain run replayed");
    assert_eq!(format!("{observed_stats:?}"), format!("{stats:?}"));
}
