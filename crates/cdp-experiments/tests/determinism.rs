//! The parallel engine contract: rendered experiment output is
//! byte-identical at any job count, because the pool returns results in
//! submission order no matter which worker finished first.

use cdp_experiments::{fig11, fig9, tlb, tournament, Context};
use cdp_sim::{Pool, RunLength};
use cdp_workloads::suite::Benchmark;

#[test]
fn fig9_render_is_identical_serial_and_parallel() {
    let serial = fig9::run(RunLength::Smoke, &Context::new(Pool::new(1))).render();
    let parallel = fig9::run(RunLength::Smoke, &Context::new(Pool::new(4))).render();
    assert_eq!(serial, parallel);
}

#[test]
fn tlb_render_is_identical_serial_and_parallel() {
    let serial = tlb::run(RunLength::Smoke, &Context::new(Pool::new(1))).render();
    let parallel = tlb::run(RunLength::Smoke, &Context::new(Pool::new(4))).render();
    assert_eq!(serial, parallel);
}

#[test]
fn tournament_subset_render_is_identical_serial_and_parallel() {
    let benches = [Benchmark::Slsb, Benchmark::Tpcc2];
    let budgets = [16 * 1024];
    let serial = tournament::run_on(
        RunLength::Smoke,
        &benches,
        &budgets,
        &Context::new(Pool::new(1)),
    )
    .expect("budget normalizes")
    .render();
    let parallel = tournament::run_on(
        RunLength::Smoke,
        &benches,
        &budgets,
        &Context::new(Pool::new(4)),
    )
    .expect("budget normalizes")
    .render();
    assert_eq!(serial, parallel);
}

#[test]
fn fig11_subset_render_is_identical_serial_and_parallel() {
    let benches = [Benchmark::Slsb, Benchmark::Tpcc2];
    let serial = fig11::run_on(RunLength::Smoke, &benches, &Context::new(Pool::new(1))).render();
    let parallel = fig11::run_on(RunLength::Smoke, &benches, &Context::new(Pool::new(4))).render();
    assert_eq!(serial, parallel);
}
