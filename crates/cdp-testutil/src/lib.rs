//! Shared test support for the CDP workspace.
//!
//! Integration tests across `tests/`, `crates/cdp-sim/tests/`, and the
//! experiment-CLI tests kept re-growing the same helpers: a smoke
//! `Scale`, a small deterministic workload, a scratch directory, and
//! "diff these two outputs and show me where they diverge". This crate
//! is the single home for them (it is a dev-dependency only — nothing in
//! the shipped simulator depends on it).

#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use cdp_sim::RunLength;
use cdp_types::rng::Rng;
use cdp_workloads::suite::{Benchmark, Scale};
use cdp_workloads::Workload;

/// The smoke-run scale (the standard size for CI-speed tests).
#[must_use]
pub fn smoke() -> Scale {
    RunLength::Smoke.scale()
}

/// Builds a tiny deterministic workload: `bench` at smoke scale with an
/// explicit seed. Equal arguments always produce byte-identical images.
#[must_use]
pub fn tiny_workload(bench: Benchmark, seed: u64) -> Workload {
    bench.build(smoke(), seed)
}

/// The default tiny workload most tests use: aged-heap pointer chasing
/// (`slsb`), the paper's motivating case, seeded at 42.
#[must_use]
pub fn default_workload() -> Workload {
    tiny_workload(Benchmark::Slsb, 42)
}

/// A deterministically seeded xoshiro256++ stream for tests that need
/// randomized-but-reproducible choices (snapshot points, shuffles).
#[must_use]
pub fn seeded_rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

/// A scratch directory `<prefix>-<pid>-<tag>` under the system temp dir:
/// emptied when created, so a rerun starts cold, and removed when
/// dropped, so a test run leaves nothing behind (std-only; this
/// workspace has no tempfile crate). Derefs to its [`Path`].
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates the directory, removing whatever a run before left there.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created.
    #[must_use]
    pub fn new(prefix: &str, tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The first line where two captured outputs diverge, as
/// `(line_number, left_line, right_line)` — `None` when byte-identical.
/// Missing lines render as `"<eof>"`.
#[must_use]
pub fn first_divergence(left: &str, right: &str) -> Option<(usize, String, String)> {
    if left == right {
        return None;
    }
    let mut l = left.lines();
    let mut r = right.lines();
    let mut n = 1;
    loop {
        match (l.next(), r.next()) {
            (None, None) => {
                // Same lines but different bytes (trailing newline etc.).
                return Some((n, "<eof>".to_string(), "<eof>".to_string()));
            }
            (a, b) if a != b => {
                return Some((
                    n,
                    a.unwrap_or("<eof>").to_string(),
                    b.unwrap_or("<eof>").to_string(),
                ));
            }
            _ => n += 1,
        }
    }
}

/// Asserts two captured outputs are byte-identical, failing with the
/// first divergent line instead of two full dumps.
///
/// # Panics
///
/// Panics (with context) when the outputs differ.
pub fn assert_identical_output(what: &str, left: &str, right: &str) {
    if let Some((line, l, r)) = first_divergence(left, right) {
        panic!("{what}: outputs diverge at line {line}:\n  left:  {l}\n  right: {r}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = tiny_workload(Benchmark::Slsb, 7);
        let b = tiny_workload(Benchmark::Slsb, 7);
        assert_eq!(a.program, b.program);
    }

    #[test]
    fn scratch_dirs_start_empty_and_are_removed_on_drop() {
        let path = {
            let dir = ScratchDir::new("cdp-testutil", "guard");
            std::fs::write(dir.join("left-over"), b"x").unwrap();
            let again = ScratchDir::new("cdp-testutil", "guard");
            assert_eq!(std::fs::read_dir(&*again).unwrap().count(), 0);
            std::fs::write(again.join("file"), b"x").unwrap();
            again.to_path_buf()
        };
        assert!(!path.exists(), "dropping the guard removes the dir");
    }

    #[test]
    fn divergence_reports_first_differing_line() {
        assert_eq!(first_divergence("a\nb\n", "a\nb\n"), None);
        let (n, l, r) = first_divergence("a\nb\n", "a\nc\n").unwrap();
        assert_eq!((n, l.as_str(), r.as_str()), (2, "b", "c"));
        let (n, _, r) = first_divergence("a\nb\n", "a\n").unwrap();
        assert_eq!((n, r.as_str()), (2, "<eof>"));
    }
}
