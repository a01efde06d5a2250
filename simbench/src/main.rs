//! Command line of the simulator benchmark.
//!
//! ```text
//! simbench --workload <chase-cdp|compute-base|tournament-sweep> --seed <N>
//!          --seconds <S> --trace <0|1> [--size full|tiny] [--microbench <path>]
//! simbench --pin --workload <name> --seed <N>
//! ```
//!
//! Prints a metric table on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--pin` records the oracle for a seed on the reference schedule and
//! writes it under `oracle/`.

use std::path::PathBuf;
use std::process::ExitCode;

use simbench::cells::{Grid, Size, WorkloadId};
use simbench::oracle::Oracle;
use simbench::run::{run, Opts, THREADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("simbench: {msg}");
    eprintln!(
        "usage: simbench --workload <chase-cdp|compute-base|tournament-sweep> --seed <N> \
         --seconds <S> --trace <0|1> [--size full|tiny] [--microbench <path>]\n       \
         simbench --pin --workload <name> --seed <N>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut microbench = None;
    let mut pin = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => WorkloadId::parse(&value).map(|w| workload = Some(w)),
            "--seed" => value.parse::<u64>().ok().map(|s| seed = Some(s)),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .map(|s| seconds = Some(s)),
            "--trace" => match value.as_str() {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            }
            .map(|t| trace = Some(t)),
            "--size" => Size::parse(&value).map(|s| size = s),
            "--microbench" => {
                microbench = Some(PathBuf::from(&value));
                Some(())
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if ok.is_none() {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };
    if pin {
        return pin_oracle(workload, seed);
    }
    let (Some(seconds), Some(trace)) = (seconds, trace) else {
        return usage("--seconds and --trace are required");
    };
    if trace && microbench.is_none() {
        return usage("a traced run needs --microbench <path>");
    }
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        size,
        microbench,
        oracle: None,
    };
    match run(&opts) {
        Ok(outcome) => {
            eprint!("{}", outcome.table());
            for e in outcome.errors.iter().take(20) {
                eprintln!("simbench: FAILED {e}");
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Records the oracle of a shipped seed on the reference schedule.
fn pin_oracle(workload: WorkloadId, seed: u64) -> ExitCode {
    let result = Grid::new(workload, Size::Full, seed).and_then(|grid| {
        let images = grid.build_images();
        let oracle = Oracle::reference(&grid, &images, Some(&cdp_sim::Pool::new(THREADS)))?;
        let path = Oracle::pinned_path(workload, seed);
        std::fs::write(&path, oracle.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    });
    match result {
        Ok(path) => {
            eprintln!("simbench: pinned {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}
