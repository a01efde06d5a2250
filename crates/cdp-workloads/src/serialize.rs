//! Workload serialization: a plain-text format for pinning exact
//! workloads (trace + memory image) to disk.
//!
//! Use cases: regression-pinning a workload that exposed a simulator bug,
//! inspecting generated traces with standard text tools, and feeding the
//! same workload to external simulators. The format is line-based:
//!
//! ```text
//! CDPWORKLOAD 1
//! name <string>
//! suite <Internet|Multimedia|Productivity|Server|Workstation|Runtime>
//! cursors <next_user_frame> <next_table_frame> <mapped_pages>
//! uops <count>
//! A <pc> <latency> <dst> <s0> <s1>        # ALU    (registers: 255 = none)
//! F <pc> <latency> <dst> <s0> <s1>        # FP
//! L <pc> <vaddr-hex> <dst> <s0> <s1>      # load
//! S <pc> <vaddr-hex> <dst> <s0> <s1>      # store
//! B <pc> <taken 0|1> <dst> <s0> <s1>      # branch
//! frames <count>
//! P <frame-hex> <4096 bytes as hex>
//! ```

use std::fmt::Write as _;

use cdp_core::{Program, Uop, UopKind, NUM_REGS};
use cdp_mem::{AddressSpace, PhysMem};
use cdp_types::{VirtAddr, PAGE_SIZE};

use crate::suite::{Suite, Workload};

/// Why a workload failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Missing or wrong magic/version line.
    BadHeader,
    /// A structurally broken line, with its 1-based line number.
    BadLine(usize),
    /// The file ended before the declared counts were satisfied.
    Truncated,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader => write!(f, "missing or unsupported CDPWORKLOAD header"),
            ParseError::BadLine(n) => write!(f, "malformed line {n}"),
            ParseError::Truncated => write!(f, "file ended before declared contents"),
        }
    }
}

impl std::error::Error for ParseError {}

fn reg_str(r: Option<u8>) -> String {
    r.map(|v| v.to_string()).unwrap_or_else(|| "255".into())
}

/// A register field: 255 is "none", anything else must name one of the
/// core's [`NUM_REGS`] architectural registers.
fn parse_reg(s: &str) -> Option<Option<u8>> {
    match s.parse::<u8>().ok()? {
        255 => Some(None),
        r if usize::from(r) < NUM_REGS => Some(Some(r)),
        _ => None,
    }
}

fn suite_str(s: Suite) -> &'static str {
    match s {
        Suite::Internet => "Internet",
        Suite::Multimedia => "Multimedia",
        Suite::Productivity => "Productivity",
        Suite::Server => "Server",
        Suite::Workstation => "Workstation",
        Suite::Runtime => "Runtime",
    }
}

/// The value of one ASCII hex digit.
fn nibble(c: u8) -> Option<u8> {
    char::from(c).to_digit(16).map(|d| d as u8)
}

/// Shortest uop line (`"A 0 0 0 0 0\n"`): the text length bounds how
/// many uop lines can follow, whatever the header claims.
const MIN_UOP_LINE: usize = 12;

fn parse_suite(s: &str) -> Option<Suite> {
    Some(match s {
        "Internet" => Suite::Internet,
        "Multimedia" => Suite::Multimedia,
        "Productivity" => Suite::Productivity,
        "Server" => Suite::Server,
        "Workstation" => Suite::Workstation,
        "Runtime" => Suite::Runtime,
        _ => return None,
    })
}

/// Serializes a workload to the text format.
pub fn to_text(w: &Workload) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "CDPWORKLOAD 1");
    let _ = writeln!(out, "name {}", w.name);
    let _ = writeln!(out, "suite {}", suite_str(w.suite));
    let (nu, nt, mp) = w.space.cursors();
    let _ = writeln!(out, "cursors {nu} {nt} {mp}");
    let _ = writeln!(out, "uops {}", w.program.len());
    for u in &w.program.uops {
        let (tag, field): (char, String) = match u.kind {
            UopKind::Alu { latency } => ('A', latency.to_string()),
            UopKind::Fp { latency } => ('F', latency.to_string()),
            UopKind::Load { vaddr } => ('L', format!("{:x}", vaddr.0)),
            UopKind::Store { vaddr } => ('S', format!("{:x}", vaddr.0)),
            UopKind::Branch { taken } => ('B', u8::from(taken).to_string()),
        };
        let _ = writeln!(
            out,
            "{tag} {} {field} {} {} {}",
            u.pc,
            reg_str(u.dst),
            reg_str(u.srcs[0]),
            reg_str(u.srcs[1])
        );
    }
    let frames: Vec<_> = w.space.phys().frames().collect();
    let _ = writeln!(out, "frames {}", frames.len());
    for (frame, data) in frames {
        let mut hex = String::with_capacity(PAGE_SIZE * 2);
        for b in data.iter() {
            let _ = write!(hex, "{b:02x}");
        }
        let _ = writeln!(out, "P {frame:x} {hex}");
    }
    out
}

/// Parses a workload from the text format.
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first problem.
pub fn from_text(text: &str) -> Result<Workload, ParseError> {
    let mut lines = text.lines().enumerate();
    let mut next = || lines.next().ok_or(ParseError::Truncated);

    let (_, header) = next()?;
    if header.trim() != "CDPWORKLOAD 1" {
        return Err(ParseError::BadHeader);
    }
    let (n, name_line) = next()?;
    let name = name_line
        .strip_prefix("name ")
        .ok_or(ParseError::BadLine(n + 1))?
        .to_string();
    let (n, suite_line) = next()?;
    let suite = suite_line
        .strip_prefix("suite ")
        .and_then(parse_suite)
        .ok_or(ParseError::BadLine(n + 1))?;
    let (n, cursors_line) = next()?;
    let cur: Vec<&str> = cursors_line
        .strip_prefix("cursors ")
        .ok_or(ParseError::BadLine(n + 1))?
        .split_whitespace()
        .collect();
    if cur.len() != 3 {
        return Err(ParseError::BadLine(n + 1));
    }
    let cursors = (
        cur[0].parse().map_err(|_| ParseError::BadLine(n + 1))?,
        cur[1].parse().map_err(|_| ParseError::BadLine(n + 1))?,
        cur[2].parse().map_err(|_| ParseError::BadLine(n + 1))?,
    );
    let (n, uops_line) = next()?;
    let uop_count: usize = uops_line
        .strip_prefix("uops ")
        .and_then(|v| v.parse().ok())
        .ok_or(ParseError::BadLine(n + 1))?;

    let mut uops = Vec::with_capacity(uop_count.min(text.len() / MIN_UOP_LINE));
    for _ in 0..uop_count {
        let (n, line) = next()?;
        let lineno = n + 1;
        let parts: Vec<&str> = line.split_whitespace().collect();
        if parts.len() != 6 {
            return Err(ParseError::BadLine(lineno));
        }
        let pc: u32 = parts[1].parse().map_err(|_| ParseError::BadLine(lineno))?;
        let dst = parse_reg(parts[3]).ok_or(ParseError::BadLine(lineno))?;
        let s0 = parse_reg(parts[4]).ok_or(ParseError::BadLine(lineno))?;
        let s1 = parse_reg(parts[5]).ok_or(ParseError::BadLine(lineno))?;
        let kind = match parts[0] {
            "A" => UopKind::Alu {
                latency: parts[2].parse().map_err(|_| ParseError::BadLine(lineno))?,
            },
            "F" => UopKind::Fp {
                latency: parts[2].parse().map_err(|_| ParseError::BadLine(lineno))?,
            },
            "L" => UopKind::Load {
                vaddr: VirtAddr(
                    u32::from_str_radix(parts[2], 16).map_err(|_| ParseError::BadLine(lineno))?,
                ),
            },
            "S" => UopKind::Store {
                vaddr: VirtAddr(
                    u32::from_str_radix(parts[2], 16).map_err(|_| ParseError::BadLine(lineno))?,
                ),
            },
            "B" => UopKind::Branch {
                taken: parts[2] == "1",
            },
            _ => return Err(ParseError::BadLine(lineno)),
        };
        uops.push(Uop {
            pc,
            kind,
            dst,
            srcs: [s0, s1],
        });
    }

    let (n, frames_line) = next()?;
    let frame_count: usize = frames_line
        .strip_prefix("frames ")
        .and_then(|v| v.parse().ok())
        .ok_or(ParseError::BadLine(n + 1))?;
    let mut phys = PhysMem::new();
    for _ in 0..frame_count {
        let (n, line) = next()?;
        let lineno = n + 1;
        let mut parts = line.split_whitespace();
        if parts.next() != Some("P") {
            return Err(ParseError::BadLine(lineno));
        }
        let frame = u32::from_str_radix(parts.next().ok_or(ParseError::BadLine(lineno))?, 16)
            .map_err(|_| ParseError::BadLine(lineno))?;
        let hex = parts.next().ok_or(ParseError::BadLine(lineno))?.as_bytes();
        if hex.len() != PAGE_SIZE * 2 {
            return Err(ParseError::BadLine(lineno));
        }
        let mut data = [0u8; PAGE_SIZE];
        for (byte, pair) in data.iter_mut().zip(hex.chunks_exact(2)) {
            *byte = nibble(pair[0])
                .zip(nibble(pair[1]))
                .map(|(hi, lo)| (hi << 4) | lo)
                .ok_or(ParseError::BadLine(lineno))?;
        }
        phys.install_frame(frame, &data)
            .map_err(|_| ParseError::BadLine(lineno))?;
    }

    Ok(Workload {
        name,
        suite,
        program: Program::new(uops),
        space: AddressSpace::from_parts(phys, cursors),
        stream: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{Benchmark, Scale};

    #[test]
    fn roundtrip_preserves_everything() {
        let w = Benchmark::B2e.build(Scale::smoke(), 12);
        let text = to_text(&w);
        let back = from_text(&text).expect("parse");
        assert_eq!(back.name, w.name);
        assert_eq!(back.suite, w.suite);
        assert_eq!(back.program.uops, w.program.uops);
        assert_eq!(back.space.mapped_pages(), w.space.mapped_pages());
        assert_eq!(back.space.cursors(), w.space.cursors());
        // Byte-identical image: re-serialization is a fixed point.
        assert_eq!(to_text(&back), text);
        // And the reloaded workload validates and simulates.
        back.validate().expect("mapped");
    }

    #[test]
    fn reloaded_workload_simulates_identically() {
        // The ultimate roundtrip check lives in the facade integration
        // tests (cdp-sim is not a dependency here); at this level, verify
        // the trace walks the same addresses through the image.
        let w = Benchmark::ProE.build(Scale::smoke(), 3);
        let back = from_text(&to_text(&w)).expect("parse");
        for (a, b) in w.program.uops.iter().zip(&back.program.uops) {
            assert_eq!(a.vaddr(), b.vaddr());
        }
        // Image contents agree at every accessed address.
        for u in w.program.uops.iter().take(500) {
            if let Some(a) = u.vaddr() {
                assert_eq!(w.space.read_u32(a), back.space.read_u32(a));
            }
        }
    }

    #[test]
    fn header_and_line_errors() {
        assert_eq!(from_text("nope").unwrap_err(), ParseError::BadHeader);
        assert_eq!(from_text("").unwrap_err(), ParseError::Truncated);
        let bad = "CDPWORKLOAD 1\nname x\nsuite Server\ncursors 1 2 3\nuops 1\nQ 0 0 0 0 0\nframes 0\n";
        assert_eq!(from_text(bad).unwrap_err(), ParseError::BadLine(6));
        let trunc = "CDPWORKLOAD 1\nname x\nsuite Server\ncursors 1 2 3\nuops 5\nA 0 1 255 255 255\n";
        assert_eq!(from_text(trunc).unwrap_err(), ParseError::Truncated);
    }

    #[test]
    fn registers_beyond_the_core_are_bad_lines() {
        let one_uop = |reg: u32| {
            format!("CDPWORKLOAD 1\nname x\nsuite Server\ncursors 1 2 3\nuops 1\nA 0 1 {reg} 255 255\nframes 0\n")
        };
        let w = from_text(&one_uop(63)).expect("the last register parses");
        assert_eq!(w.program.uops[0].dst, Some(63));
        for reg in [64, 100, 256] {
            assert_eq!(
                from_text(&one_uop(reg)).unwrap_err(),
                ParseError::BadLine(6),
                "register {reg}"
            );
        }
    }

    #[test]
    fn absurd_uop_counts_are_truncation_not_allocation() {
        for count in ["18446744073709551615", "4000000000000"] {
            let text =
                format!("CDPWORKLOAD 1\nname x\nsuite Server\ncursors 1 2 3\nuops {count}\n");
            assert_eq!(
                from_text(&text).unwrap_err(),
                ParseError::Truncated,
                "uops {count}"
            );
        }
    }

    /// A one-frame file whose `P` line carries `frame` and `hex`.
    fn frame_file(frame: &str, hex: &str) -> String {
        format!("CDPWORKLOAD 1\nname x\nsuite Server\ncursors 1 2 3\nuops 0\nframes 1\nP {frame} {hex}\n")
    }

    #[test]
    fn frame_lines_reject_non_ascii_hex_and_unreachable_frames() {
        let zeros = "0".repeat(PAGE_SIZE * 2);
        // 8,192 bytes, with a two-byte character straddling pair 0/1.
        let straddle = format!("0\u{e9}{}", &zeros[3..]);
        assert_eq!(straddle.len(), PAGE_SIZE * 2);
        assert_eq!(
            from_text(&frame_file("400", &straddle)).unwrap_err(),
            ParseError::BadLine(7)
        );
        let not_hex = format!("0g{}", &zeros[2..]);
        assert_eq!(
            from_text(&frame_file("400", &not_hex)).unwrap_err(),
            ParseError::BadLine(7)
        );
        // The last frame a 32-bit physical address reaches parses; the
        // next one and beyond are refused.
        let w = from_text(&frame_file("fffff", &zeros)).expect("highest frame");
        assert_eq!(w.space.phys().resident_frames(), 1);
        for frame in ["100000", "ffffffff"] {
            assert_eq!(
                from_text(&frame_file(frame, &zeros)).unwrap_err(),
                ParseError::BadLine(7),
                "frame {frame}"
            );
        }
    }

    #[test]
    fn error_display() {
        assert!(ParseError::BadLine(7).to_string().contains('7'));
        assert!(!ParseError::BadHeader.to_string().is_empty());
    }
}
