//! The issue stage's fast path against its reference.
//!
//! With fast-forward on, the core selects issue candidates from its
//! register wake-up masks and jumps over barren cycles. With it off, the
//! core steps every cycle and scans the whole ROB: the reference. Both
//! must issue the same uops in the same cycles, so random programs over
//! a recording memory model must leave the same access log, the same
//! `CoreStats` and the same final cycle under either schedule — also
//! when the run is snapshotted mid-way and resumed in a fresh core under
//! either schedule.
//!
//! The programs go beyond what the workload generators emit: zero-latency
//! ALU and FP uops, stores and branches that write a register, memory
//! answers at zero latency, one to three registers only (so younger
//! writers often finish before older pending ones), and narrow machines
//! down to one issue slot and one unit per pool.

use cdp::core::{Core, MemoryModel, Program, Uop, UopKind, NUM_REGS};
use cdp::snap::{Dec, Enc};
use cdp::types::rng::Rng;
use cdp::types::{AccessKind, CoreConfig, VirtAddr};

/// One `MemoryModel::access` call: pc, address, kind, issue cycle.
type Access = (u32, u32, AccessKind, u64);

/// Logs every access and answers with a seeded latency: mostly a few
/// cycles, sometimes a miss, sometimes zero (completion at `now`).
struct Recorder {
    rng: Rng,
    log: Vec<Access>,
}

impl Recorder {
    fn new(seed: u64) -> Self {
        Recorder {
            rng: Rng::seed_from_u64(seed),
            log: Vec::new(),
        }
    }
}

impl MemoryModel for Recorder {
    fn access(&mut self, pc: u32, vaddr: VirtAddr, kind: AccessKind, now: u64) -> u64 {
        self.log.push((pc, vaddr.0, kind, now));
        let latency = match self.rng.gen_range_u32(0..16) {
            0 => 0,
            1..=9 => self.rng.gen_range_u32(1..5),
            10..=13 => self.rng.gen_range_u32(10..40),
            _ => self.rng.gen_range_u32(100..400),
        };
        now + u64::from(latency)
    }
}

/// A random machine: narrow or wide, any ROB from 8 to 128 entries
/// (`rob_size` overrides), and an FP unit only when `fp` is set.
fn random_config(rng: &mut Rng, rob_size: Option<usize>, fp: bool) -> CoreConfig {
    CoreConfig {
        fetch_width: rng.gen_range_usize_incl(1..=4),
        issue_width: rng.gen_range_usize_incl(1..=3),
        retire_width: rng.gen_range_usize_incl(1..=3),
        mispredict_penalty: rng.gen_range_u32_incl(0..=30).into(),
        rob_size: rob_size.unwrap_or_else(|| rng.gen_range_usize_incl(8..=128)),
        store_buffer: rng.gen_range_usize_incl(1..=32),
        load_buffer: rng.gen_range_usize_incl(1..=48),
        int_units: rng.gen_range_usize_incl(1..=3),
        mem_units: rng.gen_range_usize_incl(1..=2),
        fp_units: if fp {
            rng.gen_range_usize_incl(1..=2)
        } else {
            0
        },
        gshare_log2_entries: rng.gen_range_u32_incl(2..=10),
    }
}

/// A random program over `regs` registers, with FP uops only when `fp`.
fn random_program(rng: &mut Rng, regs: u8, fp: bool) -> Program {
    let n = rng.gen_range_usize_incl(1..=300);
    let reg = |rng: &mut Rng, p: f64| rng.gen_bool(p).then(|| rng.gen_range_u8(0..regs));
    let uops = (0..n)
        .map(|i| {
            // A few dozen static PCs, so gshare sees repeated branches.
            let pc = (i as u32 % 48) * 4;
            // A handful of words, so loads often forward from stores.
            let vaddr = VirtAddr(0x1000 + rng.gen_range_u32(0..12) * 4);
            let kind = match rng.gen_range_u8(0..if fp { 6 } else { 5 }) {
                0 => UopKind::Alu {
                    latency: rng.gen_range_u8(0..4),
                },
                1 => UopKind::Load { vaddr },
                2 => UopKind::Store { vaddr },
                3 => UopKind::Branch {
                    taken: rng.gen_bool(0.7),
                },
                4 => UopKind::Alu { latency: 0 },
                _ => UopKind::Fp {
                    latency: rng.gen_range_u8(0..6),
                },
            };
            let writes = match kind {
                UopKind::Store { .. } | UopKind::Branch { .. } => 0.3,
                _ => 0.85,
            };
            Uop {
                pc,
                kind,
                dst: reg(rng, writes),
                srcs: [reg(rng, 0.7), reg(rng, 0.4)],
            }
        })
        .collect();
    Program::new(uops)
}

/// What a run leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    log: Vec<Access>,
    stats: cdp::core::CoreStats,
    now: u64,
}

/// Steps `core` until `stop` uops have retired or the program is done,
/// failing (instead of hanging) after more steps than the slowest
/// schedule could need: every uop waiting out the longest latency and a
/// redirect, one step per cycle.
fn run_until(core: &mut Core<'_>, mem: &mut Recorder, uops: usize, stop: u64) {
    let limit = 1_000 * uops as u64 + 10_000;
    let mut steps = 0;
    while !core.done() && core.stats().retired < stop {
        assert!(
            steps < limit,
            "no progress to {stop} retired after {steps} steps"
        );
        core.step(mem);
        steps += 1;
    }
}

fn finish(core: &mut Core<'_>, mem: &mut Recorder, uops: usize) {
    run_until(core, mem, uops, u64::MAX);
}

/// Runs `program` to completion on one schedule.
fn run(cfg: &CoreConfig, program: &Program, fast: bool, seed: u64) -> Outcome {
    let mut core = Core::new(cfg.clone(), program);
    core.set_fast_forward(fast);
    let mut mem = Recorder::new(seed);
    finish(&mut core, &mut mem, program.len());
    Outcome {
        log: mem.log,
        stats: core.stats(),
        now: core.now(),
    }
}

/// Runs `program` on the fast path until `stop` uops retire, snapshots
/// it, restores into a fresh core on schedule `resume_fast`, and
/// finishes there with the same memory model.
fn run_resumed(
    cfg: &CoreConfig,
    program: &Program,
    seed: u64,
    stop: u64,
    resume_fast: bool,
) -> Outcome {
    let mut mem = Recorder::new(seed);
    let mut first = Core::new(cfg.clone(), program);
    run_until(&mut first, &mut mem, program.len(), stop);
    let mut enc = Enc::new();
    first.save_state(&mut enc);
    let bytes = enc.into_bytes();
    let mut core = Core::new(cfg.clone(), program);
    core.set_fast_forward(resume_fast);
    let mut dec = Dec::new(&bytes);
    core.restore_state(&mut dec)
        .expect("a live snapshot restores");
    assert!(dec.is_exhausted(), "trailing snapshot bytes");
    finish(&mut core, &mut mem, program.len());
    Outcome {
        log: mem.log,
        stats: core.stats(),
        now: core.now(),
    }
}

/// Asserts two outcomes are equal, naming the first diverging access.
fn assert_same(case: &str, reference: &Outcome, other: &Outcome) {
    if let Some(i) =
        (0..reference.log.len().min(other.log.len())).find(|&i| reference.log[i] != other.log[i])
    {
        panic!(
            "{case}: access {i} differs: reference {:?}, other {:?}",
            reference.log[i], other.log[i]
        );
    }
    assert_eq!(reference, other, "{case}");
}

#[test]
fn fast_path_issues_exactly_what_the_reference_scan_issues() {
    let mut rng = Rng::seed_from_u64(0x155e_0017);
    let mut cases = 0;
    let mut uops = 0;
    for case in 0..6000 {
        let fp = rng.gen_bool(0.5);
        let regs = match case % 4 {
            0 => 1,
            1 => rng.gen_range_u8(2..4),
            2 => 8,
            _ => NUM_REGS as u8,
        };
        let cfg = random_config(&mut rng, None, fp);
        let program = random_program(&mut rng, regs, fp);
        let seed = rng.next_u64();
        let label = format!("case {case} ({regs} regs, {cfg:?})");

        let reference = run(&cfg, &program, false, seed);
        assert_eq!(reference.stats.retired as usize, program.len(), "{label}");
        assert_same(&label, &reference, &run(&cfg, &program, true, seed));

        // Snapshot mid-run and resume under either schedule.
        let stop = rng.gen_range_usize_incl(0..=program.len()) as u64;
        let resume_fast = rng.gen_bool(0.5);
        let resumed = run_resumed(&cfg, &program, seed, stop, resume_fast);
        assert_same(
            &format!("{label}, resumed at {stop} (fast: {resume_fast})"),
            &reference,
            &resumed,
        );
        cases += 1;
        uops += program.len();
    }
    assert!(uops > 500_000, "{cases} cases covered only {uops} uops");
}

/// A ROB deeper than the 128-bit wake-up masks runs the reference scan
/// on both schedules and must still complete, with the same results.
#[test]
fn rob_deeper_than_the_masks_takes_the_scan_and_completes() {
    let mut rng = Rng::seed_from_u64(0x155e_0129);
    for case in 0..8 {
        let cfg = random_config(&mut rng, Some(129 + 40 * case), true);
        let program = random_program(&mut rng, 3, true);
        let seed = rng.next_u64();
        let reference = run(&cfg, &program, false, seed);
        assert_eq!(reference.stats.retired as usize, program.len());
        assert_same(
            &format!("deep case {case}"),
            &reference,
            &run(&cfg, &program, true, seed),
        );
        let resumed = run_resumed(&cfg, &program, seed, program.len() as u64 / 2, true);
        assert_same(&format!("deep case {case}, resumed"), &reference, &resumed);
    }
}

/// The hand-built cases the random programs reach only by chance.
#[test]
fn targeted_write_orders_match_the_reference() {
    let load = |pc: u32, dst: u8, src: Option<u8>| Uop::load(pc, VirtAddr(0x2000 + pc), dst, src);
    let zero = |pc: u32, dst: u8, src: Option<u8>| Uop {
        pc,
        kind: UopKind::Alu { latency: 0 },
        dst: Some(dst),
        srcs: [src, None],
    };
    let programs = [
        // An older consumer of r1 waits on a load; a younger zero-latency
        // write to r1 makes it ready on the next cycle.
        vec![
            load(0, 1, None),
            Uop::alu_dep(4, 2, [Some(1), None], 1),
            zero(8, 1, None),
        ],
        // A younger writer of r1 finishes before the older pending one.
        vec![
            load(0, 1, None),
            Uop::alu_dep(4, 2, [Some(1), None], 1),
            Uop::alu_dep(8, 1, [None, None], 2),
            Uop::alu_dep(12, 3, [Some(1), None], 1),
        ],
        // A chain of zero-latency writes all issuing in one cycle.
        vec![
            zero(0, 1, None),
            zero(4, 2, Some(1)),
            zero(8, 3, Some(2)),
            zero(12, 4, Some(3)),
        ],
        // A store and a branch that write registers.
        vec![
            Uop {
                dst: Some(1),
                ..Uop::store(0, VirtAddr(0x3000), None, None)
            },
            Uop {
                dst: Some(2),
                ..Uop::branch(4, false, Some(1))
            },
            Uop::load(8, VirtAddr(0x3000), 3, Some(2)),
        ],
    ];
    for (i, uops) in programs.into_iter().enumerate() {
        let program = Program::new(uops);
        for latency_seed in 0..16 {
            let cfg = CoreConfig {
                issue_width: 1 + latency_seed as usize % 3,
                ..CoreConfig::default()
            };
            let reference = run(&cfg, &program, false, latency_seed);
            assert_same(
                &format!("program {i}, seed {latency_seed}"),
                &reference,
                &run(&cfg, &program, true, latency_seed),
            );
        }
    }
}
