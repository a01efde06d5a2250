//! A program-counter sampler: where a simulator run spends its host time.
//!
//! ```text
//! pcsample -- <cmd> [args...]
//! ```
//!
//! Starts `<cmd>` as a child, attaches to it with `PTRACE_SEIZE`, and
//! every [`INTERVAL`] (0.5 ms) stops each of its threads with
//! `PTRACE_INTERRUPT` and reads the thread's `rip` (`PTRACE_GETREGS`).
//! A thread parked in a blocking system call (a pool's main thread
//! waiting on its workers) gives no sample. When the child exits, the
//! samples in its executable are symbolized with `addr2line -a -f -i -C`
//! (the release profile keeps debug info), and the report goes to
//! stdout:
//!
//! * each crate's self share: the innermost frame of the sample's inline
//!   chain that lies in one of this repository's crates names the crate,
//!   so standard-library code inlined into a crate counts as that
//!   crate's; samples in no crate are `std`, a shared library, or
//!   `[kernel]` (a non-blocking system call);
//! * the top functions anywhere in the inline chains (each counted once
//!   per sample);
//! * the top source lines: the `file:line` of the innermost frame in one
//!   of this repository's crates, with that frame's function. A function
//!   view names where a cost is charged; this one names the statement.
//!
//! The child's stdout goes to stderr. The sampler traces only the child
//! it starts, runs on one thread, and needs no hooks in the simulator,
//! so a build without it pays nothing. Linux on x86-64 only; the exit
//! code is the child's (2 on a usage error).

use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Time between samples.
const INTERVAL: Duration = Duration::from_micros(500);

/// One line of `/proc/<pid>/maps`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Mapping {
    start: u64,
    end: u64,
    offset: u64,
    path: String,
}

/// Parses `/proc/<pid>/maps` text; malformed lines are skipped.
fn parse_maps(text: &str) -> Vec<Mapping> {
    text.lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (start, end) = fields.next()?.split_once('-')?;
            let _perms = fields.next()?;
            let offset = fields.next()?;
            let _dev = fields.next()?;
            let _inode = fields.next()?;
            let path = fields.collect::<Vec<_>>().join(" ");
            Some(Mapping {
                start: u64::from_str_radix(start, 16).ok()?,
                end: u64::from_str_radix(end, 16).ok()?,
                offset: u64::from_str_radix(offset, 16).ok()?,
                path,
            })
        })
        .collect()
}

/// The address `exe`'s first byte is loaded at: the start of its mapping
/// at file offset 0 for a position-independent executable, 0 for one
/// linked at a fixed address.
fn load_base(maps: &[Mapping], exe: &str, position_independent: bool) -> Option<u64> {
    if !position_independent {
        return Some(0);
    }
    maps.iter()
        .find(|m| m.path == exe && m.offset == 0)
        .map(|m| m.start)
}

/// One frame of an inline chain.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Frame {
    func: String,
    file: String,
    /// Source line, 0 where `addr2line` gives none (`??:0`, `file:?`).
    line: u32,
}

/// Parses `addr2line -a -f -i` output: per address, its `0x…` line, then
/// a function line and a `file:line` line per frame, innermost first.
fn parse_addr2line(out: &str) -> HashMap<u64, Vec<Frame>> {
    let mut chains: HashMap<u64, Vec<Frame>> = HashMap::new();
    let mut current = None;
    let mut lines = out.lines();
    while let Some(line) = lines.next() {
        if let Some(addr) = line
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
        {
            current = Some(addr);
            chains.entry(addr).or_default();
            continue;
        }
        let (Some(addr), Some(location)) = (current, lines.next()) else {
            break;
        };
        // `file:line`, perhaps followed by ` (discriminator N)`.
        let (file, line_no) = location.rsplit_once(':').unwrap_or((location, ""));
        let line_no = line_no.split(' ').next().unwrap_or("");
        chains.entry(addr).or_default().push(Frame {
            func: strip_hash(line).to_string(),
            file: file.to_string(),
            line: line_no.parse().unwrap_or(0),
        });
    }
    chains
}

/// Drops a legacy Rust symbol hash (`::h0123456789abcdef`).
fn strip_hash(func: &str) -> &str {
    match func.rsplit_once("::h") {
        Some((name, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            name
        }
        _ => func,
    }
}

/// The crate a frame belongs to: `std` for the Rust standard library
/// (its sources and vendored dependencies live under `/rustc/` or
/// `/rust/deps/`), else `crates/<name>/` or `simbench/` in its source
/// path, else the crate its function name starts with.
fn crate_of(frame: &Frame) -> String {
    let file = frame.file.as_str();
    if file.starts_with("/rustc/") || file.contains("/rust/deps/") {
        return "std".to_string();
    }
    if let Some((name, _)) = file
        .split("/crates/")
        .nth(1)
        .and_then(|r| r.split_once('/'))
    {
        return name.to_string();
    }
    if file.contains("/simbench/src/") {
        return "simbench".to_string();
    }
    // `<T as path::Trait>::f` is named by the trait's crate.
    let path = frame.func.trim_start_matches('<');
    let path = path.split_once(" as ").map_or(path, |(_, t)| t);
    match path.split("::").next().unwrap_or("") {
        "" | "??" => "[unknown]".to_string(),
        "core" | "alloc" | "std" => "std".to_string(),
        head => head.replace('_', "-"),
    }
}

/// Self crate of a sample: the innermost frame outside `std`, else `std`.
fn self_crate(chain: &[Frame]) -> String {
    chain
        .iter()
        .map(crate_of)
        .find(|c| c != "std")
        .unwrap_or_else(|| if chain.is_empty() { "[unknown]" } else { "std" }.to_string())
}

/// A frame's source line as the report names it, from `crates/` or
/// `simbench/` on, if the frame lies in one of this repository's crates.
fn workspace_line(frame: &Frame) -> Option<String> {
    if crate_of(frame) == "std" {
        return None;
    }
    let file = frame.file.as_str();
    let at = file
        .find("/crates/")
        .or_else(|| file.find("/simbench/src/"))?;
    Some(format!(
        "{}:{}  {}",
        &file[at + 1..],
        frame.line,
        frame.func
    ))
}

/// Where one sample landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Sample {
    /// User code at this `rip`.
    User(u64),
    /// Inside a system call that was doing work (not parked).
    Kernel,
}

/// The report over `samples`, given each executable address's inline
/// chain and the child's mappings.
fn report(
    samples: &[Sample],
    exe: &str,
    base: u64,
    maps: &[Mapping],
    chains: &HashMap<u64, Vec<Frame>>,
) -> String {
    let mut crates: HashMap<String, u64> = HashMap::new();
    let mut inclusive: HashMap<String, u64> = HashMap::new();
    let mut lines: HashMap<String, u64> = HashMap::new();
    for s in samples {
        let rip = match *s {
            Sample::Kernel => {
                *crates.entry("[kernel]".into()).or_default() += 1;
                continue;
            }
            Sample::User(rip) => rip,
        };
        let Some(m) = maps.iter().find(|m| (m.start..m.end).contains(&rip)) else {
            *crates.entry("[unmapped]".into()).or_default() += 1;
            continue;
        };
        if m.path != exe {
            let lib = m.path.rsplit('/').next().unwrap_or("").to_string();
            let lib = if lib.is_empty() { "[anon]".into() } else { lib };
            *crates.entry(lib).or_default() += 1;
            continue;
        }
        let chain = chains.get(&(rip - base)).map_or(&[][..], |c| c.as_slice());
        *crates.entry(self_crate(chain)).or_default() += 1;
        if let Some(line) = chain.iter().find_map(workspace_line) {
            *lines.entry(line).or_default() += 1;
        }
        let mut seen = HashSet::new();
        for f in chain {
            if seen.insert(&f.func) {
                *inclusive.entry(f.func.clone()).or_default() += 1;
            }
        }
    }
    let total = samples.len().max(1) as f64;
    let mut out = String::new();
    let mut section = |title: &str, counts: HashMap<String, u64>, limit: usize| {
        out.push_str(title);
        out.push('\n');
        // Largest first; ties by name, so the report is deterministic.
        let mut sorted: Vec<(String, u64)> = counts.into_iter().collect();
        sorted.sort_by(|(a, m), (b, n)| n.cmp(m).then_with(|| a.cmp(b)));
        for (name, n) in sorted.into_iter().take(limit) {
            out.push_str(&format!(
                "  {:6.2} %  {n:>7}  {name}\n",
                n as f64 * 100.0 / total
            ));
        }
    };
    section("per-crate self share:", crates, usize::MAX);
    section(
        "top functions in the inline chains (inclusive):",
        inclusive,
        25,
    );
    section("top source lines (innermost workspace frame):", lines, 25);
    out
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod trace {
    //! The ptrace side: start, seize, sample and reap the child.

    use super::{Sample, INTERVAL};
    use std::collections::HashSet;
    use std::ffi::c_void;

    const PTRACE_CONT: i32 = 7;
    const PTRACE_GETREGS: i32 = 12;
    const PTRACE_SEIZE: i32 = 0x4206;
    const PTRACE_INTERRUPT: i32 = 0x4207;
    const PTRACE_O_TRACECLONE: usize = 0x8;
    const PTRACE_O_EXITKILL: usize = 0x10_0000;
    const PTRACE_EVENT_STOP: i32 = 128;
    const WALL: i32 = 0x4000_0000;
    const SIGTRAP: i32 = 5;
    /// `-ERESTARTSYS` .. `-ERESTART_RESTARTBLOCK`: the `rax` of a thread
    /// stopped while parked in a blocking system call.
    const RESTART_CODES: [i64; 4] = [-512, -513, -514, -516];
    /// `rip`, `rax` and `orig_rax` in `struct user_regs_struct`.
    const REG_RIP: usize = 16;
    const REG_RAX: usize = 10;
    const REG_ORIG_RAX: usize = 15;

    extern "C" {
        fn ptrace(request: i32, ...) -> i64;
        fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    }

    fn request(req: i32, tid: i32, data: usize) -> bool {
        // SAFETY: the requests used here read into no caller memory
        // except PTRACE_GETREGS, which has its own call below.
        unsafe {
            ptrace(
                req,
                tid,
                std::ptr::null_mut::<c_void>(),
                data as *mut c_void,
            ) >= 0
        }
    }

    /// The sample of a thread in an interrupt stop; `None` when it is
    /// parked in a blocking system call.
    fn sample(tid: i32) -> Option<Sample> {
        let mut regs = [0u64; 27];
        // SAFETY: `regs` is as large as `struct user_regs_struct` on
        // x86-64 (27 words), which PTRACE_GETREGS fills.
        let ok = unsafe {
            ptrace(
                PTRACE_GETREGS,
                tid,
                std::ptr::null_mut::<c_void>(),
                regs.as_mut_ptr().cast::<c_void>(),
            )
        } >= 0;
        if !ok {
            return None;
        }
        if regs[REG_ORIG_RAX] == u64::MAX {
            return Some(Sample::User(regs[REG_RIP]));
        }
        (!RESTART_CODES.contains(&(regs[REG_RAX] as i64))).then_some(Sample::Kernel)
    }

    /// Waits for the next stop or exit of any traced thread.
    fn wait_any() -> Option<(i32, i32)> {
        let mut status = 0;
        // SAFETY: `status` is a valid out-pointer.
        let tid = unsafe { waitpid(-1, &mut status, WALL) };
        (tid > 0).then_some((tid, status))
    }

    /// Samples `pid` (already started, not yet traced) every [`INTERVAL`]
    /// until it exits. `on_first_stop` runs once while the child is
    /// stopped for its first sample. Returns the samples and the
    /// child's exit code.
    pub fn run(pid: i32, mut on_first_stop: impl FnMut()) -> Result<(Vec<Sample>, i32), String> {
        if !request(PTRACE_SEIZE, pid, PTRACE_O_TRACECLONE | PTRACE_O_EXITKILL) {
            return Err(format!(
                "PTRACE_SEIZE of pid {pid} failed: {}",
                std::io::Error::last_os_error()
            ));
        }
        let mut threads: HashSet<i32> = HashSet::from([pid]);
        let mut samples = Vec::new();
        let mut first = true;
        loop {
            std::thread::sleep(INTERVAL);
            let mut pending: HashSet<i32> = threads
                .iter()
                .copied()
                .filter(|&t| request(PTRACE_INTERRUPT, t, 0))
                .collect();
            let mut stopped = Vec::new();
            while !pending.is_empty() {
                let Some((tid, status)) = wait_any() else {
                    return Ok((samples, 1));
                };
                let exited = status & 0x7f == 0;
                let killed = !exited && (status & 0x7f) != 0x7f;
                if exited || killed {
                    threads.remove(&tid);
                    pending.remove(&tid);
                    if tid == pid {
                        let code = if exited {
                            (status >> 8) & 0xff
                        } else {
                            128 + (status & 0x7f)
                        };
                        return Ok((samples, code));
                    }
                    continue;
                }
                let sig = (status >> 8) & 0xff;
                let event = status >> 16;
                if event == PTRACE_EVENT_STOP && pending.remove(&tid) {
                    stopped.push(tid);
                } else if event == PTRACE_EVENT_STOP || sig == SIGTRAP {
                    // A new thread's first stop, or a clone event.
                    threads.insert(tid);
                    request(PTRACE_CONT, tid, 0);
                } else {
                    // A signal on its way to the child: deliver it.
                    request(PTRACE_CONT, tid, sig as usize);
                }
            }
            if first && !stopped.is_empty() {
                on_first_stop();
                first = false;
            }
            for tid in stopped {
                samples.extend(sample(tid));
                request(PTRACE_CONT, tid, 0);
            }
        }
    }
}

/// Parses `-- <cmd> [args...]` into the command.
fn parse_args(args: &[String]) -> Result<&[String], String> {
    match args.split_first() {
        Some((dashes, cmd)) if dashes == "--" && !cmd.is_empty() => Ok(cmd),
        Some((dashes, _)) if dashes == "--" => Err("no command after --".into()),
        Some((other, _)) => Err(format!("unknown argument {other}")),
        None => Err("missing -- <cmd>".into()),
    }
}

/// Symbolizes `addrs` (file addresses in `exe`) with one `addr2line` run.
fn symbolize(exe: &str, addrs: &[u64]) -> Result<HashMap<u64, Vec<Frame>>, String> {
    use std::io::Write;
    let mut child = std::process::Command::new("addr2line")
        .args(["-a", "-f", "-i", "-C", "-e", exe])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("addr2line: {e}"))?;
    let mut stdin = child.stdin.take().ok_or("addr2line stdin")?;
    let input: String = addrs.iter().map(|a| format!("{a:#x}\n")).collect();
    // Write from a thread: addr2line answers as it reads, so a pipe full
    // in each direction would otherwise stall both processes.
    let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let out = child
        .wait_with_output()
        .map_err(|e| format!("addr2line: {e}"))?;
    writer
        .join()
        .map_err(|_| "addr2line writer panicked")?
        .map_err(|e| format!("addr2line: {e}"))?;
    Ok(parse_addr2line(&String::from_utf8_lossy(&out.stdout)))
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("pcsample: {e}\nusage: pcsample -- <cmd> [args...]");
            std::process::exit(2);
        }
    };
    let fail = |e: String| -> ! {
        eprintln!("pcsample: {e}");
        std::process::exit(1);
    };
    use std::os::fd::AsFd;
    let stdout_to_stderr = std::io::stderr()
        .as_fd()
        .try_clone_to_owned()
        .unwrap_or_else(|e| fail(format!("stderr: {e}")));
    let mut child = std::process::Command::new(&cmd[0])
        .args(&cmd[1..])
        .stdout(stdout_to_stderr)
        .spawn()
        .unwrap_or_else(|e| fail(format!("{}: {e}", cmd[0])));
    // `spawn` returns once the child has exec'd, so its executable is
    // mapped; its libraries are read at the first stop.
    let pid = child.id() as i32;
    let exe = std::fs::read_link(format!("/proc/{pid}/exe"))
        .map(|p| p.to_string_lossy().into_owned())
        .unwrap_or_else(|e| fail(format!("/proc/{pid}/exe: {e}")));
    let mut maps = Vec::new();
    let (samples, code) = trace::run(pid, || {
        maps =
            parse_maps(&std::fs::read_to_string(format!("/proc/{pid}/maps")).unwrap_or_default());
    })
    .unwrap_or_else(|e| {
        // Not traced, so not killed with the sampler: stop it here.
        let _ = child.kill();
        let _ = child.wait();
        fail(e)
    });
    let pie = std::fs::read(&exe)
        .ok()
        .and_then(|elf| elf.get(16).copied())
        .is_some_and(|e_type| e_type == 3);
    let base = load_base(&maps, &exe, pie).unwrap_or(0);
    let mut addrs: Vec<u64> = samples
        .iter()
        .filter_map(|s| match *s {
            Sample::User(rip) => maps
                .iter()
                .any(|m| m.path == exe && (m.start..m.end).contains(&rip))
                .then(|| rip - base),
            Sample::Kernel => None,
        })
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    let chains = symbolize(&exe, &addrs).unwrap_or_else(|e| fail(e));
    println!(
        "pcsample: {} samples every {} us of {} (exit {code})",
        samples.len(),
        INTERVAL.as_micros(),
        cmd.join(" ")
    );
    print!("{}", report(&samples, &exe, base, &maps, &chains));
    std::process::exit(code);
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("pcsample: Linux on x86-64 only");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAPS: &str = "\
55d0c8a00000-55d0c8a2c000 r--p 00000000 fd:01 1234                       /work/target/release/experiments
55d0c8a2c000-55d0c8f00000 r-xp 0002c000 fd:01 1234                       /work/target/release/experiments
55d0c9000000-55d0c9021000 rw-p 00000000 00:00 0                          [heap]
7f11aa000000-7f11aa028000 r--p 00000000 fd:01 777                        /usr/lib/x86_64-linux-gnu/libc.so.6
7f11aa100000-7f11aa101000 rw-p 00000000 00:00 0
not a maps line
";

    #[test]
    fn maps_parse_paths_offsets_and_the_load_base() {
        let maps = parse_maps(MAPS);
        assert_eq!(maps.len(), 5, "the malformed line is skipped");
        assert_eq!(
            maps[1],
            Mapping {
                start: 0x55d0_c8a2_c000,
                end: 0x55d0_c8f0_0000,
                offset: 0x2c000,
                path: "/work/target/release/experiments".into(),
            }
        );
        assert_eq!(maps[2].path, "[heap]");
        assert_eq!(maps[4].path, "", "anonymous mappings have no path");
        let exe = "/work/target/release/experiments";
        assert_eq!(load_base(&maps, exe, true), Some(0x55d0_c8a0_0000));
        assert_eq!(load_base(&maps, exe, false), Some(0));
        assert_eq!(load_base(&maps, "/elsewhere", true), None);
    }

    const ADDR2LINE: &str = "\
0x000000000002d1a0
core::num::<impl usize>::wrapping_add
/rustc/59807616e1fa2540724bfbac14d7976d7e4a3860/library/core/src/num/uint_macros.rs:1920
alloc::collections::vec_deque::VecDeque<T,A>::to_physical_idx
/rustc/59807616e1fa2540724bfbac14d7976d7e4a3860/library/alloc/src/collections/vec_deque/mod.rs:195 (discriminator 2)
cdp_core::core::Core::issue_one
/work/crates/cdp-core/src/core.rs:712
0x000000000002e000
cdp_workloads::trace::TraceBuilder::chase::h0123456789abcdef
/work/crates/cdp-workloads/src/trace.rs:136
0x000000000002f000
??
??:0
";

    #[test]
    fn addr2line_chains_parse_innermost_first() {
        let chains = parse_addr2line(ADDR2LINE);
        assert_eq!(chains.len(), 3);
        let issue = &chains[&0x2d1a0];
        let funcs: Vec<&str> = issue.iter().map(|f| f.func.as_str()).collect();
        assert_eq!(
            funcs,
            [
                "core::num::<impl usize>::wrapping_add",
                "alloc::collections::vec_deque::VecDeque<T,A>::to_physical_idx",
                "cdp_core::core::Core::issue_one",
            ]
        );
        assert_eq!(issue[2].file, "/work/crates/cdp-core/src/core.rs");
        assert_eq!((issue[1].line, issue[2].line), (195, 712));
        assert_eq!(
            chains[&0x2e000][0].func, "cdp_workloads::trace::TraceBuilder::chase",
            "the legacy symbol hash is dropped"
        );
        assert_eq!(chains[&0x2f000][0].func, "??");
    }

    #[test]
    fn inlined_std_code_counts_as_its_callers_crate() {
        let frame = |func: &str, file: &str| Frame {
            func: func.into(),
            file: file.into(),
            line: 0,
        };
        let std_arch = "/rustc/abc/library/stdarch/crates/core_arch/src/x86/sse2.rs";
        assert_eq!(
            crate_of(&frame("core::core_arch::x86::_mm_add", std_arch)),
            "std"
        );
        let vendored = "/rust/deps/hashbrown-0.15.2/src/raw/mod.rs";
        assert_eq!(
            crate_of(&frame("hashbrown::raw::RawTable::find", vendored)),
            "std"
        );
        let trait_impl = "<Q as hashbrown::Equivalent<K>>::equivalent";
        assert_eq!(crate_of(&frame(trait_impl, "??")), "hashbrown");
        let chains = parse_addr2line(ADDR2LINE);
        assert_eq!(self_crate(&chains[&0x2d1a0]), "cdp-core");
        assert_eq!(self_crate(&chains[&0x2e000]), "cdp-workloads");
        assert_eq!(self_crate(&chains[&0x2f000]), "[unknown]");
        assert_eq!(self_crate(&chains[&0x2d1a0][..2]), "std");
    }

    #[test]
    fn report_splits_samples_by_crate_library_and_kernel() {
        let maps = parse_maps(MAPS);
        let exe = "/work/target/release/experiments";
        let base = 0x55d0_c8a0_0000;
        let chains = parse_addr2line(ADDR2LINE);
        let samples = [
            Sample::User(base + 0x2d1a0),
            Sample::User(base + 0x2d1a0),
            Sample::User(base + 0x2e000),
            Sample::User(0x7f11_aa00_0100),
            Sample::Kernel,
            Sample::User(0x10),
        ];
        let r = report(&samples, exe, base, &maps, &chains);
        assert!(r.contains(" 33.33 %        2  cdp-core\n"), "{r}");
        assert!(r.contains(" 16.67 %        1  cdp-workloads\n"), "{r}");
        assert!(r.contains(" 16.67 %        1  libc.so.6\n"), "{r}");
        assert!(r.contains(" 16.67 %        1  [kernel]\n"), "{r}");
        assert!(r.contains(" 16.67 %        1  [unmapped]\n"), "{r}");
        assert!(
            r.contains(" 33.33 %        2  alloc::collections::vec_deque::VecDeque<T,A>::to_physical_idx\n"),
            "{r}"
        );
    }

    #[test]
    fn line_view_names_the_innermost_workspace_line() {
        let maps = parse_maps(MAPS);
        let exe = "/work/target/release/experiments";
        let base = 0x55d0_c8a0_0000;
        let mut chains = parse_addr2line(ADDR2LINE);
        // A fourth address: the same function as the first, another line.
        chains.insert(
            0x2d200,
            parse_addr2line(
                "0x2d200\ncdp_core::core::Core::issue_one\n/work/crates/cdp-core/src/core.rs:713\n",
            )
            .remove(&0x2d200)
            .unwrap(),
        );
        let samples = [
            Sample::User(base + 0x2d1a0),
            Sample::User(base + 0x2d1a0),
            Sample::User(base + 0x2d200),
            Sample::User(base + 0x2e000),
            Sample::User(base + 0x2f000),
        ];
        let r = report(&samples, exe, base, &maps, &chains);
        let view = r
            .split_once("top source lines (innermost workspace frame):\n")
            .expect("a line section")
            .1;
        let rows: Vec<&str> = view.lines().collect();
        assert_eq!(
            rows,
            [
                "   40.00 %        2  crates/cdp-core/src/core.rs:712  cdp_core::core::Core::issue_one",
                "   20.00 %        1  crates/cdp-core/src/core.rs:713  cdp_core::core::Core::issue_one",
                "   20.00 %        1  crates/cdp-workloads/src/trace.rs:136  cdp_workloads::trace::TraceBuilder::chase",
            ],
            "std frames are skipped and an unsymbolized sample has no line: {r}"
        );
    }

    #[test]
    fn arguments_are_dashes_then_a_command() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&args(&["--", "ls", "-l"])),
            Ok(&args(&["ls", "-l"])[..])
        );
        assert!(parse_args(&args(&["-v", "--", "ls"])).is_err());
        assert!(parse_args(&args(&["--"])).is_err());
        assert!(parse_args(&args(&["ls"])).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
