//! Cross-crate observability contract (DESIGN.md §7):
//!
//! * an observed run must produce exactly the same simulation results as
//!   the plain path — tracing and metrics windowing are read-only;
//! * window deltas must sum back to the run totals;
//! * the trace ring must honor its filter, capacity, and sampling knobs;
//! * a manifest assembled from real runs must validate and round-trip
//!   through the JSON parser.

use std::sync::Arc;

use cdp::experiments::obs::{build_manifest, CellRecord, ExperimentRecord, ObsTaken};
use cdp::obs::{Json, TraceData};
use cdp::sim::{JobOutcome, Pool, RunPolicy, SimJob, Simulator};
use cdp::types::{ObsConfig, SystemConfig, TraceConfig, TraceFilter};
use cdp_testutil::default_workload as workload;

#[test]
fn observed_run_matches_plain_run_exactly() {
    let w = workload();
    let cfg = SystemConfig::with_content();
    let plain = Simulator::try_new(cfg.clone())
        .unwrap()
        .try_run(&w)
        .unwrap();
    // Full observability on: trace everything, tight metrics windows.
    let obs = ObsConfig {
        trace: Some(TraceConfig::default()),
        metrics_window: Some(10_000),
        profile_hist: true,
    };
    let (observed, observation) = Simulator::try_new(cfg.clone())
        .unwrap()
        .try_run_observed(&w, &obs)
        .unwrap();
    assert_eq!(plain.cycles, observed.cycles);
    assert_eq!(plain.retired, observed.retired);
    assert_eq!(plain.mem, observed.mem);
    assert_eq!(plain.bus, observed.bus);
    assert!(!observation.events.is_empty(), "tracing captured events");
    assert!(!observation.windows.is_empty(), "windowing captured series");
    // Observability fully off: the observed path still matches, and the
    // observation is empty.
    let (off, empty) = Simulator::try_new(cfg)
        .unwrap()
        .try_run_observed(&w, &ObsConfig::default())
        .unwrap();
    assert_eq!(plain.cycles, off.cycles);
    assert_eq!(plain.mem, off.mem);
    assert!(empty.events.is_empty() && empty.windows.is_empty());
    assert_eq!(empty.trace_recorded, 0);
}

#[test]
fn window_deltas_sum_to_run_totals() {
    let w = workload();
    let obs = ObsConfig {
        trace: None,
        metrics_window: Some(8_192),
        profile_hist: false,
    };
    let (stats, observation) = Simulator::try_new(SystemConfig::with_content())
        .unwrap()
        .try_run_observed(&w, &obs)
        .unwrap();
    assert!(observation.windows.len() > 1, "small window ⇒ many windows");
    let retired: u64 = observation.windows.iter().map(|x| x.retired).sum();
    let cycles: u64 = observation.windows.iter().map(|x| x.cycles).sum();
    let misses: u64 = observation.windows.iter().map(|x| x.l2_demand_misses).sum();
    let issued: u64 = observation.windows.iter().map(|x| x.content_issued).sum();
    assert_eq!(retired, stats.retired);
    assert_eq!(cycles, stats.cycles);
    assert_eq!(misses, stats.mem.l2_demand_misses);
    assert_eq!(issued, stats.mem.content.issued);
    // Windows are consecutively numbered from 0.
    for (i, win) in observation.windows.iter().enumerate() {
        assert_eq!(win.window, i);
    }
}

#[test]
fn trace_ring_honors_filter_capacity_and_sampling() {
    let w = workload();
    let run = |trace: TraceConfig| {
        Simulator::try_new(SystemConfig::with_content())
            .unwrap()
            .try_run_observed(
                &w,
                &ObsConfig {
                    trace: Some(trace),
                    metrics_window: None,
                    profile_hist: false,
                },
            )
            .unwrap()
            .1
    };
    // Filter: a vam-only ring records only VAM verdicts.
    let vam_only = run(TraceConfig {
        filter: TraceFilter::parse("vam").unwrap(),
        ..TraceConfig::default()
    });
    assert!(
        !vam_only.events.is_empty(),
        "content runs produce VAM scans"
    );
    for e in &vam_only.events {
        assert!(
            matches!(
                e.data,
                TraceData::VamAccept { .. } | TraceData::VamReject { .. }
            ),
            "filtered ring leaked {:?}",
            e.data
        );
    }
    // Capacity: a tiny ring keeps only the newest events and counts the
    // overwritten ones.
    let tiny = run(TraceConfig {
        capacity: 32,
        ..TraceConfig::default()
    });
    assert!(tiny.events.len() <= 32);
    assert!(tiny.trace_overwritten > 0, "smoke run overflows 32 slots");
    assert_eq!(
        tiny.trace_recorded,
        tiny.events.len() as u64 + tiny.trace_overwritten
    );
    // Sampling: every eligible event is either recorded or sampled out,
    // and the partition is consistent with the sample-everything run.
    let full = run(TraceConfig::default());
    let sampled = run(TraceConfig {
        sample: 7,
        ..TraceConfig::default()
    });
    assert_eq!(full.trace_sampled_out, 0);
    assert!(sampled.trace_sampled_out > 0);
    assert_eq!(
        full.trace_recorded,
        sampled.trace_recorded + sampled.trace_sampled_out,
        "eligible-event count is deterministic"
    );
}

#[test]
fn manifest_from_real_runs_validates_and_round_trips() {
    let w = Arc::new(workload());
    let obs_cfg = ObsConfig {
        trace: Some(TraceConfig {
            capacity: 256,
            ..TraceConfig::default()
        }),
        metrics_window: Some(16_384),
        profile_hist: true,
    };
    let jobs: Vec<SimJob> = [
        ("base", SystemConfig::asplos2002()),
        ("cdp", SystemConfig::with_content()),
    ]
    .into_iter()
    .map(|(label, cfg)| SimJob::new(label, cfg, Arc::clone(&w)).with_obs(obs_cfg.clone()))
    .collect();
    let reports = Pool::new(2).run_sims_profiled(jobs, RunPolicy::default());
    let taken = ObsTaken {
        cells: reports
            .into_iter()
            .map(|r| CellRecord {
                experiment: "obs-it".into(),
                label: r.label.clone(),
                status: if r.outcome.is_ok() { "ok" } else { "failed" },
                wall_ms: r.wall.as_millis() as u64,
                config_fingerprint: cdp::obs::fingerprint_hex(r.label.as_bytes()),
                checkpoint: "off",
                retired: match &r.outcome {
                    JobOutcome::Ok(stats) => stats.retired,
                    _ => 0,
                },
                pf_issued: 0,
                pf_useful: 0,
                pf_wasted: 0,
                observation: r.observation,
            })
            .collect(),
        experiments: vec![ExperimentRecord {
            id: "obs-it".into(),
            wall_ms: 1,
        }],
        result_cache_hits: 0,
        result_cache_misses: 0,
        result_store_hits: 0,
        result_store_misses: 0,
        result_store_quarantined: 0,
        checkpoint_dropped_writes: 0,
    };
    assert!(
        taken.cells.iter().all(|c| c.observation.is_some()),
        "both runs delivered observations"
    );
    let manifest = build_manifest("smoke", 2, &taken);
    cdp::obs::validate(&manifest).expect("schema-valid");
    let reparsed = Json::parse(&manifest.to_string()).expect("serializes to valid JSON");
    cdp::obs::validate(&reparsed).expect("valid after round-trip");
    let agg = reparsed.get("aggregates").expect("aggregates present");
    assert_eq!(agg.get("cells_total").unwrap().as_u64(), Some(2));
    assert!(agg.get("metrics_windows_total").unwrap().as_u64().unwrap() > 0);
    assert!(agg.get("trace_events_total").unwrap().as_u64().unwrap() > 0);
}
