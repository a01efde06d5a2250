//! Component-level snapshot round-trips: exercise each stateful cdp-mem
//! structure, save it, restore into a freshly constructed instance, and
//! check that *future behavior* (not just observable stats) is identical.

use cdp_mem::{Bus, MshrFile, PhysMem, Tlb, FRAME_LIMIT};
use cdp_snap::{Dec, Enc};
use cdp_types::rng::Rng;
use cdp_types::{
    BusConfig, LineAddr, PageNum, PhysAddr, RequestKind, SnapshotError, TlbConfig, VirtAddr,
    LINE_SIZE, PAGE_SIZE,
};

fn roundtrip<T>(save: impl FnOnce(&mut Enc), restore: impl FnOnce(&mut Dec<'_>) -> T) -> T {
    let mut enc = Enc::new();
    save(&mut enc);
    let bytes = enc.into_bytes();
    let mut dec = Dec::new(&bytes);
    let out = restore(&mut dec);
    assert!(dec.is_exhausted(), "restore left trailing bytes");
    out
}

fn random_kind(rng: &mut Rng) -> RequestKind {
    match rng.gen_range_u8(0..5) {
        0 => RequestKind::Demand,
        1 => RequestKind::PageWalk,
        2 => RequestKind::Stride,
        3 => RequestKind::Markov,
        _ => RequestKind::Content {
            depth: rng.gen_range_u8(1..8),
        },
    }
}

#[test]
fn tlb_roundtrip_preserves_future_evictions() {
    let cfg = TlbConfig::dtlb_asplos2002();
    let mut rng = Rng::seed_from_u64(0x51a9_0001);
    let mut a = Tlb::new(&cfg);
    for _ in 0..300 {
        let page = PageNum(rng.gen_range_u32(0..128));
        if a.lookup(page).is_none() {
            a.insert(page, PhysAddr(page.0 << 12));
        }
    }
    let mut b = Tlb::new(&cfg);
    roundtrip(|e| a.save_state(e), |d| b.restore_state(d).unwrap());
    assert_eq!(a.stats(), b.stats());
    // Drive both forward: LRU decisions must coincide.
    for _ in 0..300 {
        let page = PageNum(rng.gen_range_u32(0..128));
        assert_eq!(a.lookup(page), b.lookup(page));
        if !a.probe(page) {
            a.insert(page, PhysAddr(page.0 << 12));
            b.insert(page, PhysAddr(page.0 << 12));
        }
    }
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn mshr_roundtrip_preserves_probe_layout_and_drain_order() {
    let mut rng = Rng::seed_from_u64(0x51a9_0002);
    let mut a = MshrFile::with_capacity(32);
    for i in 0..200u64 {
        let line = LineAddr(rng.gen_range_u32(0..256) * LINE_SIZE as u32);
        let kind = random_kind(&mut rng);
        if a.lookup(line).is_none() {
            a.insert(
                line,
                VirtAddr(line.0),
                kind,
                i,
                i + 1 + rng.next_u64() % 400,
            );
        }
        if i % 17 == 0 {
            let mut done = Vec::new();
            a.drain_complete_into(i, &mut done);
        }
    }
    let mut b = MshrFile::with_capacity(32);
    roundtrip(|e| a.save_state(e), |d| b.restore_state(d).unwrap());
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.len(), b.len());
    // Future inserts and drains must behave identically (same probe
    // chains, same completion order).
    for i in 200..400u64 {
        let line = LineAddr(rng.gen_range_u32(0..256) * LINE_SIZE as u32);
        let kind = random_kind(&mut rng);
        assert_eq!(a.lookup(line).is_some(), b.lookup(line).is_some());
        if a.lookup(line).is_none() {
            a.insert(line, VirtAddr(line.0), kind, i, i + 100);
            b.insert(line, VirtAddr(line.0), kind, i, i + 100);
        }
        assert_eq!(a.next_completion(), b.next_completion());
        let mut da = Vec::new();
        let mut db = Vec::new();
        a.drain_complete_into(i, &mut da);
        b.drain_complete_into(i, &mut db);
        assert_eq!(da, db);
    }
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn bus_roundtrip_preserves_timing_tracks() {
    let cfg = BusConfig::default();
    let mut rng = Rng::seed_from_u64(0x51a9_0003);
    let mut a = Bus::new(&cfg);
    for i in 0..100u64 {
        let demand = rng.gen_range_u8(0..2) == 0;
        a.schedule(i * 3, demand);
    }
    let mut b = Bus::new(&cfg);
    roundtrip(|e| a.save_state(e), |d| b.restore_state(d).unwrap());
    assert_eq!(a.stats(), b.stats());
    for i in 100..200u64 {
        let now = i * 3;
        assert_eq!(a.prefetch_backlog_at(now), b.prefetch_backlog_at(now));
        assert_eq!(a.outstanding_at(now), b.outstanding_at(now));
        assert_eq!(a.schedule(now, true), b.schedule(now, true));
    }
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn physmem_roundtrip_and_fingerprint() {
    let mut rng = Rng::seed_from_u64(0x51a9_0005);
    let mut a = PhysMem::new();
    for _ in 0..50 {
        let addr =
            PhysAddr(rng.gen_range_u32(0..64) * PAGE_SIZE as u32 + rng.gen_range_u32(0..256));
        a.write_u32(addr, rng.next_u32());
    }
    let fp = a.state_fingerprint();
    let mut b = PhysMem::new();
    roundtrip(|e| a.save_state(e), |d| b.restore_state(d).unwrap());
    assert_eq!(b.resident_frames(), a.resident_frames());
    assert_eq!(b.state_fingerprint(), fp, "fingerprint survives round-trip");
    for (num, data) in a.frames() {
        let base = PhysAddr(num << 12);
        assert_eq!(&b.read_bytes(base, PAGE_SIZE)[..], &data[..]);
    }
    // Fingerprint is insertion-order independent.
    let mut c = PhysMem::new();
    let frames: Vec<(u32, [u8; PAGE_SIZE])> = a.frames().map(|(n, d)| (n, *d)).collect();
    for (n, d) in frames.iter().rev() {
        c.install_frame(*n, d).unwrap();
    }
    assert_eq!(c.state_fingerprint(), fp);
}

#[test]
fn physmem_restore_refuses_frames_beyond_the_address_space() {
    let page = [0xa5u8; PAGE_SIZE];
    let encode = |frame: u32| {
        let mut enc = Enc::new();
        enc.seq_len(1);
        enc.u32(frame);
        enc.bytes(&page);
        enc.into_bytes()
    };
    let last = FRAME_LIMIT - 1;
    let mut ok = PhysMem::new();
    ok.restore_state(&mut Dec::new(&encode(last))).unwrap();
    assert_eq!(ok.read_u8(PhysAddr(u32::MAX)), 0xa5);
    for frame in [FRAME_LIMIT, FRAME_LIMIT + 1, u32::MAX] {
        let mut mem = PhysMem::new();
        assert_eq!(
            mem.restore_state(&mut Dec::new(&encode(frame))),
            Err(SnapshotError::Corrupt {
                context: "phys frame number"
            }),
            "frame {frame:#x}"
        );
        assert_eq!(mem.resident_frames(), 0);
    }
}

#[test]
fn truncated_component_state_is_a_typed_error() {
    let mut a = MshrFile::with_capacity(16);
    a.insert(LineAddr(0x40), VirtAddr(0x40), RequestKind::Demand, 1, 10);
    let mut enc = Enc::new();
    a.save_state(&mut enc);
    let bytes = enc.into_bytes();
    for n in 0..bytes.len() {
        let mut b = MshrFile::with_capacity(16);
        let mut dec = Dec::new(&bytes[..n]);
        assert!(
            b.restore_state(&mut dec).is_err(),
            "truncation at {n} went undetected"
        );
    }
}
