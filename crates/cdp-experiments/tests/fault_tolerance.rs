//! End-to-end fault-tolerance contract of the `experiments` binary:
//!
//! * strict mode (default) aborts on an injected fault;
//! * `--keep-going` completes the run, renders failing cells as `--`
//!   gaps, prints a failure report on stderr, and exits with the
//!   documented partial-failure code 3;
//! * stdout is byte-identical at any `--jobs` count, faulted or not;
//! * cells untouched by the fault report the same values as a fault-free
//!   run, in the non-grid studies (fig1, pollution) too;
//! * `--cell-timeout` abandons a cell that overruns it, a fig1 series
//!   included.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

const EXIT_PARTIAL: i32 = 3;

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments binary")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// The whitespace-split tokens of every stdout row naming `bench`.
fn bench_rows(out: &str, bench: &str) -> Vec<Vec<String>> {
    out.lines()
        .filter(|l| l.split_whitespace().next() == Some(bench))
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect()
}

#[test]
fn bad_fault_spec_is_a_usage_error() {
    let o = experiments(&["table2", "--smoke", "--fault", "bogus:spec"]);
    assert_eq!(o.status.code(), Some(2), "stderr: {}", stderr(&o));
    assert!(stderr(&o).contains("bad --fault spec"));
}

#[test]
fn misspelled_fault_benchmark_is_a_usage_error() {
    // A spec naming no benchmark would inject nothing and exit 0.
    let o = experiments(&[
        "table2",
        "--smoke",
        "--jobs",
        "2",
        "--keep-going",
        "--fault",
        "unmap:b2f:7:2",
    ]);
    assert_eq!(o.status.code(), Some(2), "stderr: {}", stderr(&o));
    assert!(
        stderr(&o).contains("unknown benchmark 'b2f'"),
        "stderr: {}",
        stderr(&o)
    );
}

#[test]
fn strict_mode_aborts_on_an_injected_fault() {
    // Unmapping trace pages of slsb makes its demand path fail; without
    // --keep-going the first failing cell is fatal.
    let o = experiments(&[
        "table2",
        "--smoke",
        "--jobs",
        "2",
        "--fault",
        "unmap:slsb:7:2",
    ]);
    assert!(!o.status.success());
    assert_ne!(
        o.status.code(),
        Some(EXIT_PARTIAL),
        "strict mode is not partial"
    );
    assert!(
        stderr(&o).contains("unmapped"),
        "the typed error reaches stderr: {}",
        stderr(&o)
    );
}

#[test]
fn keep_going_renders_gaps_reports_failures_and_exits_partial() {
    let clean = experiments(&["table2", "--smoke", "--jobs", "2"]);
    assert!(clean.status.success(), "stderr: {}", stderr(&clean));
    let clean_out = stdout(&clean);
    assert!(
        !clean_out.contains("cell(s) failed"),
        "no footnote when healthy"
    );

    let faulted = experiments(&[
        "table2",
        "--smoke",
        "--jobs",
        "2",
        "--keep-going",
        "--fault",
        "unmap:slsb:7:2",
    ]);
    assert_eq!(
        faulted.status.code(),
        Some(EXIT_PARTIAL),
        "stderr: {}",
        stderr(&faulted)
    );
    let out = stdout(&faulted);
    let err = stderr(&faulted);

    // The faulted benchmark's row is an annotated gap...
    let slsb = bench_rows(&out, "slsb");
    assert_eq!(slsb.len(), 1, "slsb row present:\n{out}");
    assert!(
        slsb[0].iter().filter(|c| *c == "--").count() >= 3,
        "slsb cells gap out: {:?}",
        slsb[0]
    );
    assert!(
        out.contains("cell(s) failed"),
        "footnote below the table:\n{out}"
    );

    // ...the failure report names the cell and the typed error...
    assert!(err.contains("FAILURE REPORT"), "stderr: {err}");
    assert!(err.contains("[table2]"), "experiment id in report: {err}");
    assert!(err.contains("slsb"), "cell label in report: {err}");
    assert!(err.contains("unmapped"), "typed error in report: {err}");

    // ...and every unaffected benchmark reports exactly the fault-free
    // values (token-wise, so column re-widening cannot mask a change).
    for bench in ["quake", "b2e", "tpcc-2", "verilog-gate"] {
        let clean_rows = bench_rows(&clean_out, bench);
        let fault_rows = bench_rows(&out, bench);
        assert!(!clean_rows.is_empty(), "{bench} present in clean run");
        assert_eq!(
            clean_rows, fault_rows,
            "{bench} cells must be untouched by the slsb fault"
        );
    }
}

#[test]
fn faulted_stdout_is_byte_identical_at_any_job_count() {
    let args = |jobs: &'static str| {
        [
            "table2",
            "--smoke",
            "--jobs",
            jobs,
            "--keep-going",
            "--fault",
            "unmap:slsb:7:2",
        ]
    };
    let one = experiments(&args("1"));
    let four = experiments(&args("4"));
    assert_eq!(one.status.code(), Some(EXIT_PARTIAL));
    assert_eq!(four.status.code(), Some(EXIT_PARTIAL));
    assert_eq!(
        stdout(&one),
        stdout(&four),
        "submission-order results make gaps deterministic"
    );
}

#[test]
fn fig1_and_pollution_gap_per_cell() {
    // Neither study is a `run_grid_cells` grid, but a fault in one
    // benchmark must still gap only that benchmark's cells, whether it
    // unmaps trace pages or fails demand page walks.
    let faulted = experiments(&[
        "fig1",
        "pollution",
        "--smoke",
        "--jobs",
        "2",
        "--keep-going",
        "--fault",
        "unmap:b2e:7:2",
        "--fault",
        "walk:tpcc-2:50:demand",
    ]);
    assert_eq!(
        faulted.status.code(),
        Some(EXIT_PARTIAL),
        "stderr: {}",
        stderr(&faulted)
    );
    let (out, err) = (stdout(&faulted), stderr(&faulted));
    assert!(!err.contains("(whole experiment)"), "stderr: {err}");
    // Each faulted benchmark has its own report entries and a gapped
    // pollution row...
    for bench in ["b2e", "tpcc-2"] {
        for cell in [
            format!("[fig1] {bench}:"),
            format!("[pollution] clean/{bench}:"),
            format!("[pollution] dirty/{bench}:"),
        ] {
            assert!(err.contains(&cell), "{cell} in report: {err}");
        }
        assert_eq!(bench_rows(&out, bench), [[bench, "--", "--"]]);
    }

    // ...and a gapped fig1 column (b2e is the first series, tpcc-2 the
    // fourth) in every window...
    let windows: Vec<Vec<&str>> = out
        .lines()
        .skip_while(|l| !l.starts_with("window"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert!(!windows.is_empty(), "fig1 rows present:\n{out}");
    assert!(
        windows.iter().all(|t| t[1] == "--" && t[4] == "--"),
        "b2e and tpcc-2 columns gap out:\n{out}"
    );
    // ...while the healthy rows keep their fault-free values.
    let clean = stdout(&experiments(&["pollution", "--smoke", "--jobs", "2"]));
    for bench in ["quake", "tpcc-1", "slsb"] {
        assert!(!bench_rows(&clean, bench).is_empty(), "{bench} present");
        assert_eq!(
            bench_rows(&clean, bench),
            bench_rows(&out, bench),
            "{bench}"
        );
    }
    assert!(out.contains("cell(s) failed"), "footnotes:\n{out}");
}

#[test]
fn cell_timeout_abandons_an_overrunning_cell() {
    // The large-tier cell simulates 100M uops (~16 s on a 2-core x86-64
    // host in release), far beyond a one-second watchdog.
    let args = |keep_going: bool| {
        let mut a = vec![
            "onecell",
            "--scale",
            "large",
            "--jobs",
            "1",
            "--cell-timeout",
            "1",
        ];
        if keep_going {
            a.push("--keep-going");
        }
        a
    };
    let start = Instant::now();
    let o = experiments(&args(true));
    let took = start.elapsed();
    assert_eq!(
        o.status.code(),
        Some(EXIT_PARTIAL),
        "stderr: {}",
        stderr(&o)
    );
    assert!(
        took < Duration::from_secs(8),
        "the watchdog fired late: {took:?}"
    );
    let out = stdout(&o);
    assert!(
        out.lines()
            .any(|l| l.split_whitespace().eq(["--", "--", "--", "--"])),
        "the cell renders as a gap:\n{out}"
    );
    assert!(stderr(&o).contains("timed out"), "stderr: {}", stderr(&o));

    let strict = experiments(&args(false));
    assert!(!strict.status.success());
    assert_ne!(
        strict.status.code(),
        Some(EXIT_PARTIAL),
        "strict mode is not partial"
    );
}

#[test]
fn fig1_series_over_the_cell_timeout_gap_out() {
    // A large-tier fig1 series simulates 100M uops, far beyond a
    // one-second watchdog, so every series is abandoned: each gets a
    // `timed out` report entry and an empty (gap) column, and the run
    // exits partial instead of simulating for minutes.
    let start = Instant::now();
    let o = experiments(&[
        "fig1",
        "--scale",
        "large",
        "--jobs",
        "2",
        "--keep-going",
        "--cell-timeout",
        "1",
    ]);
    let took = start.elapsed();
    let (out, err) = (stdout(&o), stderr(&o));
    assert_eq!(o.status.code(), Some(EXIT_PARTIAL), "stderr: {err}");
    assert!(
        took < Duration::from_secs(20),
        "the watchdog fired late: {took:?}"
    );
    let benches = [
        "b2e",
        "quake",
        "rc3",
        "tpcc-2",
        "verilog-func",
        "specjbb-vsnet",
    ];
    for bench in benches {
        assert!(
            err.contains(&format!("[fig1] {bench}: timed out")),
            "{bench} in report: {err}"
        );
    }
    let mut table = out.lines().skip_while(|l| !l.starts_with("window"));
    let header: Vec<&str> = table
        .next()
        .expect("column header")
        .split_whitespace()
        .collect();
    assert_eq!(header[1..], benches, "one column per series:\n{out}");
    assert_eq!(
        table.next(),
        Some(""),
        "no series has a window to show:\n{out}"
    );
    assert!(out.contains("6 cell(s) failed"), "footnote:\n{out}");
}
