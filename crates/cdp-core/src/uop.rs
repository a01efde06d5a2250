//! The uop trace ISA.
//!
//! Workload generators emit sequences of [`Uop`]s with explicit register
//! dependences. The register file is an abstraction: values are never
//! computed (addresses were resolved at generation time against the real
//! memory image), but *readiness* is tracked cycle-accurately, so
//! dependence chains — especially loads feeding the addresses of later
//! loads — serialize exactly as they would in hardware.

use cdp_types::VirtAddr;

/// Number of architectural registers available to trace generators.
pub const NUM_REGS: usize = 64;

/// The operation performed by one uop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UopKind {
    /// Integer ALU operation completing after `latency` cycles.
    Alu {
        /// Execution latency in cycles (>= 1).
        latency: u8,
    },
    /// Floating-point operation (uses the FP unit).
    Fp {
        /// Execution latency in cycles (>= 1).
        latency: u8,
    },
    /// Data load from `vaddr` (uses a memory unit and a load-queue entry).
    Load {
        /// Effective address, resolved at trace-generation time.
        vaddr: VirtAddr,
    },
    /// Data store to `vaddr` (uses a memory unit and a store-queue entry).
    Store {
        /// Effective address, resolved at trace-generation time.
        vaddr: VirtAddr,
    },
    /// Conditional branch with its actual outcome; mispredictions cost the
    /// configured redirect penalty.
    Branch {
        /// The branch's resolved direction.
        taken: bool,
    },
}

/// Register byte of an absent register. It names the core's
/// permanently-zero pad slot of the ready table, so an absent source is
/// always ready and dispatch reads no `Option`.
pub const NO_REG: u8 = NUM_REGS as u8;

/// Class bytes of a [`Uop`], numbered in the tag order of the snapshot's
/// uop encoding and of `Workload::fingerprint`.
pub const CLASS_ALU: u8 = 0;
/// See [`CLASS_ALU`].
pub const CLASS_FP: u8 = 1;
/// See [`CLASS_ALU`].
pub const CLASS_LOAD: u8 = 2;
/// See [`CLASS_ALU`].
pub const CLASS_STORE: u8 = 3;
/// See [`CLASS_ALU`].
pub const CLASS_BRANCH: u8 = 4;

/// One micro-operation with its register dependences, stored pre-decoded
/// in 12 bytes: the core's dispatch copies it into a ROB slot as it is.
/// [`UopKind`] is its constructor and inspection view ([`Uop::new`],
/// [`Uop::kind`], [`Uop::dst`], [`Uop::srcs`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Uop {
    /// Program counter (used by the stride prefetcher and gshare).
    pub pc: u32,
    /// The operand: an ALU or FP latency, a load or store address, or a
    /// branch's taken bit.
    pub(crate) arg: u32,
    /// [`CLASS_ALU`] ..= [`CLASS_BRANCH`].
    pub(crate) class: u8,
    /// Destination register, [`NO_REG`] for none.
    pub(crate) dst: u8,
    /// Source registers, [`NO_REG`] for an unused slot.
    pub(crate) srcs: [u8; 2],
}

const _: () = assert!(std::mem::size_of::<Uop>() == 12);

/// The register byte of `r`.
///
/// # Panics
///
/// Panics if `r` names a register the core does not have.
#[inline]
fn reg_byte(r: Option<u8>) -> u8 {
    match r {
        Some(r) => {
            assert!(usize::from(r) < NUM_REGS, "uop names register r{r}");
            r
        }
        None => NO_REG,
    }
}

impl Uop {
    /// A uop of `kind` writing `dst` and reading `srcs`.
    ///
    /// # Panics
    ///
    /// Panics if a register is `NUM_REGS` or above. Decoders of outside
    /// data (the workload text parser, the snapshot decoder) check
    /// register bounds themselves and return a typed error instead.
    #[inline]
    pub fn new(pc: u32, kind: UopKind, dst: Option<u8>, srcs: [Option<u8>; 2]) -> Self {
        let (class, arg) = match kind {
            UopKind::Alu { latency } => (CLASS_ALU, u32::from(latency)),
            UopKind::Fp { latency } => (CLASS_FP, u32::from(latency)),
            UopKind::Load { vaddr } => (CLASS_LOAD, vaddr.0),
            UopKind::Store { vaddr } => (CLASS_STORE, vaddr.0),
            UopKind::Branch { taken } => (CLASS_BRANCH, u32::from(taken)),
        };
        Uop {
            pc,
            arg,
            class,
            dst: reg_byte(dst),
            srcs: [reg_byte(srcs[0]), reg_byte(srcs[1])],
        }
    }

    /// A dependency-free single-cycle ALU uop (filler work).
    pub fn alu(pc: u32) -> Self {
        Uop::new(pc, UopKind::Alu { latency: 1 }, None, [None, None])
    }

    /// An ALU uop computing `dst` from `srcs` in `latency` cycles.
    pub fn alu_dep(pc: u32, dst: u8, srcs: [Option<u8>; 2], latency: u8) -> Self {
        let latency = latency.max(1);
        Uop::new(pc, UopKind::Alu { latency }, Some(dst), srcs)
    }

    /// A load into `dst` whose address depends on `addr_reg` (None for an
    /// address available immediately, e.g. a global).
    pub fn load(pc: u32, vaddr: VirtAddr, dst: u8, addr_reg: Option<u8>) -> Self {
        Uop::new(pc, UopKind::Load { vaddr }, Some(dst), [addr_reg, None])
    }

    /// A store of `data_reg` to `vaddr` through `addr_reg`.
    pub fn store(pc: u32, vaddr: VirtAddr, addr_reg: Option<u8>, data_reg: Option<u8>) -> Self {
        Uop::new(pc, UopKind::Store { vaddr }, None, [addr_reg, data_reg])
    }

    /// A conditional branch on `cond_reg` with outcome `taken`.
    pub fn branch(pc: u32, taken: bool, cond_reg: Option<u8>) -> Self {
        Uop::new(pc, UopKind::Branch { taken }, None, [cond_reg, None])
    }

    /// The operation.
    pub fn kind(&self) -> UopKind {
        match self.class {
            CLASS_ALU => UopKind::Alu {
                latency: self.arg as u8,
            },
            CLASS_FP => UopKind::Fp {
                latency: self.arg as u8,
            },
            CLASS_LOAD => UopKind::Load {
                vaddr: VirtAddr(self.arg),
            },
            CLASS_STORE => UopKind::Store {
                vaddr: VirtAddr(self.arg),
            },
            _ => UopKind::Branch {
                taken: self.arg != 0,
            },
        }
    }

    /// The class byte, [`CLASS_ALU`] ..= [`CLASS_BRANCH`].
    pub fn class(&self) -> u8 {
        self.class
    }

    /// The operand word: the latency, the address, or the taken bit.
    pub fn operand(&self) -> u32 {
        self.arg
    }

    /// Destination register, if any.
    pub fn dst(&self) -> Option<u8> {
        (self.dst != NO_REG).then_some(self.dst)
    }

    /// Up to two source registers.
    pub fn srcs(&self) -> [Option<u8>; 2] {
        self.srcs.map(|s| (s != NO_REG).then_some(s))
    }

    /// Whether this uop needs a memory port.
    pub fn is_mem(&self) -> bool {
        matches!(self.class, CLASS_LOAD | CLASS_STORE)
    }

    /// The effective address, if this is a memory uop.
    pub fn vaddr(&self) -> Option<VirtAddr> {
        self.is_mem().then_some(VirtAddr(self.arg))
    }
}

/// An executable uop trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// The uops, in program order.
    pub uops: Vec<Uop>,
}

impl Program {
    /// Creates a program from uops.
    pub fn new(uops: Vec<Uop>) -> Self {
        Program { uops }
    }

    /// Number of uops.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Count of load uops.
    pub fn num_loads(&self) -> usize {
        self.uops.iter().filter(|u| u.class == CLASS_LOAD).count()
    }

    /// Count of store uops.
    pub fn num_stores(&self) -> usize {
        self.uops.iter().filter(|u| u.class == CLASS_STORE).count()
    }

    /// Count of branch uops.
    pub fn num_branches(&self) -> usize {
        self.uops.iter().filter(|u| u.class == CLASS_BRANCH).count()
    }
}

impl std::fmt::Display for UopKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UopKind::Alu { latency } => write!(f, "alu({latency})"),
            UopKind::Fp { latency } => write!(f, "fp({latency})"),
            UopKind::Load { vaddr } => write!(f, "ld [{vaddr}]"),
            UopKind::Store { vaddr } => write!(f, "st [{vaddr}]"),
            UopKind::Branch { taken } => {
                write!(f, "br {}", if *taken { "taken" } else { "not-taken" })
            }
        }
    }
}

impl std::fmt::Display for Uop {
    /// A disassembly-style line: `pc: kind dst <- srcs`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#06x}: {}", self.pc, self.kind())?;
        if let Some(d) = self.dst() {
            write!(f, " r{d} <-")?;
        }
        for s in self.srcs().iter().flatten() {
            write!(f, " r{s}")?;
        }
        Ok(())
    }
}

impl Program {
    /// Renders a disassembly-style listing of `range` (clamped to the
    /// program), one uop per line — a debugging aid for trace generators.
    pub fn disasm(&self, range: std::ops::Range<usize>) -> String {
        let end = range.end.min(self.uops.len());
        let start = range.start.min(end);
        let mut out = String::new();
        for (i, u) in self.uops[start..end].iter().enumerate() {
            out.push_str(&format!("{:>6}  {}\n", start + i, u));
        }
        out
    }
}

impl FromIterator<Uop> for Program {
    fn from_iter<I: IntoIterator<Item = Uop>>(iter: I) -> Self {
        Program {
            uops: iter.into_iter().collect(),
        }
    }
}

impl Extend<Uop> for Program {
    fn extend<I: IntoIterator<Item = Uop>>(&mut self, iter: I) {
        self.uops.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_dependences() {
        let ld = Uop::load(0x10, VirtAddr(0x1000), 3, Some(2));
        assert_eq!(ld.dst(), Some(3));
        assert_eq!(ld.srcs(), [Some(2), None]);
        assert!(ld.is_mem());
        assert_eq!(ld.vaddr(), Some(VirtAddr(0x1000)));

        let st = Uop::store(0x14, VirtAddr(0x2000), Some(3), Some(4));
        assert!(st.is_mem());
        assert_eq!(st.dst(), None);

        let br = Uop::branch(0x18, true, Some(1));
        assert!(!br.is_mem());
        assert_eq!(br.vaddr(), None);
    }

    /// `new` and the inspection view agree for every kind, with no, one
    /// and two sources, and with and without a destination.
    #[test]
    fn new_round_trips_through_the_inspection_view() {
        let kinds = [
            UopKind::Alu { latency: 0 },
            UopKind::Alu { latency: 255 },
            UopKind::Fp { latency: 7 },
            UopKind::Load {
                vaddr: VirtAddr(0xffff_fffc),
            },
            UopKind::Store {
                vaddr: VirtAddr(0x1000),
            },
            UopKind::Branch { taken: true },
            UopKind::Branch { taken: false },
        ];
        let regs = [None, Some(0), Some(NUM_REGS as u8 - 1)];
        for kind in kinds {
            for dst in regs {
                for srcs in [[None, None], [Some(5), None], [Some(0), Some(63)]] {
                    let u = Uop::new(0xdead_beef, kind, dst, srcs);
                    assert_eq!(
                        (u.pc, u.kind(), u.dst(), u.srcs()),
                        (0xdead_beef, kind, dst, srcs)
                    );
                    assert_eq!(u.is_mem(), u.vaddr().is_some());
                }
            }
        }
        // The convenience constructors build what `new` builds.
        let v = VirtAddr(0x40);
        for (short, long) in [
            (
                Uop::alu(4),
                Uop::new(4, UopKind::Alu { latency: 1 }, None, [None, None]),
            ),
            (
                Uop::load(8, v, 3, Some(2)),
                Uop::new(8, UopKind::Load { vaddr: v }, Some(3), [Some(2), None]),
            ),
            (
                Uop::store(12, v, Some(1), None),
                Uop::new(12, UopKind::Store { vaddr: v }, None, [Some(1), None]),
            ),
            (
                Uop::branch(16, true, Some(9)),
                Uop::new(16, UopKind::Branch { taken: true }, None, [Some(9), None]),
            ),
        ] {
            assert_eq!(short, long);
        }
    }

    #[test]
    #[should_panic(expected = "uop names register r64")]
    fn new_refuses_a_destination_beyond_the_core() {
        Uop::new(
            0,
            UopKind::Alu { latency: 1 },
            Some(NUM_REGS as u8),
            [None, None],
        );
    }

    #[test]
    #[should_panic(expected = "uop names register r255")]
    fn new_refuses_a_source_beyond_the_core() {
        Uop::new(0, UopKind::Branch { taken: true }, None, [None, Some(255)]);
    }

    #[test]
    fn alu_latency_floor() {
        let u = Uop::alu_dep(0, 1, [None, None], 0);
        assert_eq!(u.kind(), UopKind::Alu { latency: 1 });
    }

    #[test]
    fn display_and_disasm() {
        let u = Uop::load(0x10, VirtAddr(0x1000), 3, Some(2));
        assert_eq!(u.to_string(), "0x0010: ld [0x00001000] r3 <- r2");
        let b = Uop::branch(0x18, true, Some(1));
        assert!(b.to_string().contains("br taken"));
        let p = Program::new(vec![u, b]);
        let d = p.disasm(0..10);
        assert_eq!(d.lines().count(), 2);
        assert!(d.contains("ld ["));
        // Degenerate ranges are clamped, not panicking.
        #[allow(clippy::reversed_empty_ranges)]
        let degenerate = 5..3;
        assert_eq!(p.disasm(degenerate), "");
    }

    #[test]
    fn program_counts() {
        let p: Program = vec![
            Uop::alu(0),
            Uop::load(4, VirtAddr(0x1000), 1, None),
            Uop::store(8, VirtAddr(0x2000), None, Some(1)),
            Uop::branch(12, false, None),
            Uop::load(16, VirtAddr(0x3000), 2, Some(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(p.len(), 5);
        assert_eq!(p.num_loads(), 2);
        assert_eq!(p.num_stores(), 1);
        assert_eq!(p.num_branches(), 1);
        assert!(!p.is_empty());
    }
}
