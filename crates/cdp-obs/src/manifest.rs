//! Run-manifest schema helpers.
//!
//! A manifest is a single JSON object describing one `experiments`
//! invocation: what ran, with which configs (fingerprinted), how long each
//! cell took, how retries/timeouts played out, and suite-level aggregates.
//! The schema is deliberately flat and additive — consumers must tolerate
//! unknown keys — but the keys in [`REQUIRED_KEYS`] are guaranteed, and
//! [`validate`] enforces them plus basic shape checks.

use crate::json::Json;

/// Manifest schema version; bump when a required key changes meaning.
/// v1: initial flat schema. v2: cells may additionally carry a
/// `profile` object (latency histograms, `--profile-hist`) — purely
/// additive, so v1 documents stay valid. v3: cells and aggregates may
/// additionally carry uop-throughput accounting (`retired`, `muops`,
/// `uops_retired_total`) — also additive, as are the per-cell prefetch
/// counters (`pf_issued`, `pf_useful`, `pf_wasted`) the tournament and
/// its CI assertions read back.
pub const SCHEMA_VERSION: u64 = 3;

/// Oldest schema version [`validate`] still accepts.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// Histograms every per-cell `profile` object must carry.
pub const PROFILE_HIST_KEYS: &[&str] = &[
    "load_to_use",
    "prefetch_to_use",
    "mshr_occupancy",
    "rob_stall",
];

/// Numeric fields every profile histogram must carry.
pub const PROFILE_STAT_KEYS: &[&str] = &["count", "sum", "min", "max", "p50", "p90", "p99", "p999"];

/// Keys every valid manifest must carry at the top level.
pub const REQUIRED_KEYS: &[&str] = &[
    "schema_version",
    "tool",
    "scale",
    "jobs",
    "seed",
    "experiments",
    "cells",
    "aggregates",
];

/// Keys every cell record must carry.
pub const CELL_KEYS: &[&str] = &[
    "experiment",
    "label",
    "status",
    "attempts",
    "wall_ms",
    "config_fingerprint",
    "checkpoint",
];

/// FNV-1a 64-bit hash, used to fingerprint a config's `Debug` rendering.
/// Stable across runs (no randomized state), cheap, and dependency-free.
#[must_use]
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`fingerprint`] rendered as a fixed-width hex string.
#[must_use]
pub fn fingerprint_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fingerprint(bytes))
}

/// Validates a parsed manifest document.
///
/// # Errors
///
/// Returns a message naming the first violated constraint: a missing
/// required key, a non-object document, a wrong schema version, or a
/// malformed `experiments` / `cells` entry.
pub fn validate(doc: &Json) -> Result<(), String> {
    if !matches!(doc, Json::Obj(_)) {
        return Err("manifest must be a JSON object".to_string());
    }
    for key in REQUIRED_KEYS {
        if doc.get(key).is_none() {
            return Err(format!("manifest missing required key {key:?}"));
        }
    }
    match doc.get("schema_version").and_then(Json::as_u64) {
        Some(v) if (MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&v) => {}
        Some(v) => return Err(format!("unsupported schema_version {v}")),
        None => return Err("schema_version must be an unsigned integer".to_string()),
    }
    let experiments = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or_else(|| "experiments must be an array".to_string())?;
    for (i, e) in experiments.iter().enumerate() {
        if e.get("id").and_then(Json::as_str).is_none() {
            return Err(format!("experiments[{i}] missing string key \"id\""));
        }
        if e.get("wall_ms").and_then(Json::as_f64).is_none() {
            return Err(format!("experiments[{i}] missing numeric key \"wall_ms\""));
        }
    }
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| "cells must be an array".to_string())?;
    for (i, cell) in cells.iter().enumerate() {
        for key in CELL_KEYS {
            if cell.get(key).is_none() {
                return Err(format!("cells[{i}] missing required key {key:?}"));
            }
        }
        let status = cell.get("status").and_then(Json::as_str).unwrap_or("");
        if !matches!(status, "ok" | "failed" | "timeout") {
            return Err(format!("cells[{i}] has invalid status {status:?}"));
        }
        let checkpoint = cell.get("checkpoint").and_then(Json::as_str).unwrap_or("");
        if !matches!(checkpoint, "off" | "fresh" | "resumed" | "corrupt-fallback") {
            return Err(format!(
                "cells[{i}] has invalid checkpoint provenance {checkpoint:?}"
            ));
        }
        if let Some(profile) = cell.get("profile") {
            validate_profile(i, profile)?;
        }
        // Throughput accounting and prefetch counters (schema v3) are
        // optional but typed.
        for key in ["retired", "muops", "pf_issued", "pf_useful", "pf_wasted"] {
            if let Some(v) = cell.get(key) {
                if v.as_f64().is_none() {
                    return Err(format!("cells[{i}].{key} must be numeric"));
                }
            }
        }
    }
    if !matches!(doc.get("aggregates"), Some(Json::Obj(_))) {
        return Err("aggregates must be an object".to_string());
    }
    Ok(())
}

/// Validates one cell's optional `profile` object (schema v2): each of
/// the four latency histograms must be present with every numeric stat
/// field, and within each the percentiles must be ordered.
fn validate_profile(cell: usize, profile: &Json) -> Result<(), String> {
    if !matches!(profile, Json::Obj(_)) {
        return Err(format!("cells[{cell}].profile must be an object"));
    }
    for hist in PROFILE_HIST_KEYS {
        let h = profile
            .get(hist)
            .ok_or_else(|| format!("cells[{cell}].profile missing histogram {hist:?}"))?;
        for key in PROFILE_STAT_KEYS {
            if h.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!(
                    "cells[{cell}].profile.{hist} missing numeric key {key:?}"
                ));
            }
        }
        let at = |key: &str| h.get(key).and_then(Json::as_f64).expect("checked");
        let ordered = [
            at("min"),
            at("p50"),
            at("p90"),
            at("p99"),
            at("p999"),
            at("max"),
        ];
        if at("count") > 0.0 && ordered.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!(
                "cells[{cell}].profile.{hist} percentiles are not monotone"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_manifest() -> Json {
        let mut cell = Json::obj();
        cell.set("experiment", Json::Str("table2".into()));
        cell.set("label", Json::Str("slsb".into()));
        cell.set("status", Json::Str("ok".into()));
        cell.set("attempts", Json::U64(1));
        cell.set("wall_ms", Json::F64(12.5));
        cell.set("config_fingerprint", Json::Str(fingerprint_hex(b"cfg")));
        cell.set("checkpoint", Json::Str("off".into()));
        let mut exp = Json::obj();
        exp.set("id", Json::Str("table2".into()));
        exp.set("wall_ms", Json::F64(30.0));
        let mut doc = Json::obj();
        doc.set("schema_version", Json::U64(SCHEMA_VERSION));
        doc.set("tool", Json::Str("cdp-experiments".into()));
        doc.set("scale", Json::Str("smoke".into()));
        doc.set("jobs", Json::U64(2));
        doc.set("seed", Json::U64(0x5eed_2002));
        doc.set("experiments", Json::Arr(vec![exp]));
        doc.set("cells", Json::Arr(vec![cell]));
        doc.set("aggregates", Json::obj());
        doc
    }

    #[test]
    fn fingerprint_is_stable_fnv1a() {
        // FNV-1a test vectors.
        assert_eq!(fingerprint(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fingerprint_hex(b"a").len(), 16);
        assert_ne!(fingerprint(b"cfg1"), fingerprint(b"cfg2"));
    }

    #[test]
    fn validate_accepts_minimal() {
        let doc = minimal_manifest();
        validate(&doc).expect("valid manifest");
        // And survives a serialize/parse round trip.
        let back = Json::parse(&doc.to_string()).unwrap();
        validate(&back).expect("valid after roundtrip");
    }

    #[test]
    fn validate_rejects_missing_key() {
        for key in REQUIRED_KEYS {
            let doc = minimal_manifest();
            let Json::Obj(pairs) = doc else {
                unreachable!()
            };
            let stripped = Json::Obj(pairs.into_iter().filter(|(k, _)| k != key).collect());
            let err = validate(&stripped).unwrap_err();
            assert!(err.contains(key), "error {err:?} should name {key:?}");
        }
    }

    fn sample_profile() -> Json {
        let mut hist = Json::obj();
        hist.set("count", Json::U64(10));
        hist.set("sum", Json::U64(500));
        hist.set("min", Json::U64(3));
        hist.set("p50", Json::U64(40));
        hist.set("p90", Json::U64(90));
        hist.set("p99", Json::U64(120));
        hist.set("p999", Json::U64(121));
        hist.set("max", Json::U64(121));
        let mut p = Json::obj();
        for key in PROFILE_HIST_KEYS {
            p.set(key, hist.clone());
        }
        p
    }

    #[test]
    fn validate_accepts_legacy_v1_documents() {
        let mut doc = minimal_manifest();
        doc.set("schema_version", Json::U64(1));
        validate(&doc).expect("v1 manifests stay valid under the v2 schema");
        doc.set("schema_version", Json::U64(SCHEMA_VERSION + 1));
        assert!(validate(&doc).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn validate_types_throughput_keys() {
        // v3 throughput keys are optional but must be numeric when present.
        let mut doc = minimal_manifest();
        let Json::Obj(ref mut pairs) = doc else {
            unreachable!()
        };
        let cells = &mut pairs.iter_mut().find(|(k, _)| k == "cells").unwrap().1;
        let Json::Arr(cells) = cells else {
            unreachable!()
        };
        cells[0].set("retired", Json::U64(5_000_000));
        cells[0].set("muops", Json::F64(12.5));
        validate(&doc).expect("numeric throughput keys are valid");
        let Json::Obj(ref mut pairs) = doc else {
            unreachable!()
        };
        let cells = &mut pairs.iter_mut().find(|(k, _)| k == "cells").unwrap().1;
        let Json::Arr(cells) = cells else {
            unreachable!()
        };
        cells[0].set("muops", Json::Str("fast".into()));
        assert!(validate(&doc).unwrap_err().contains("muops"));
    }

    #[test]
    fn validate_accepts_profile_cells() {
        let mut doc = minimal_manifest();
        let Json::Obj(ref mut pairs) = doc else {
            unreachable!()
        };
        let cells = &mut pairs.iter_mut().find(|(k, _)| k == "cells").unwrap().1;
        let Json::Arr(cells) = cells else {
            unreachable!()
        };
        cells[0].set("profile", sample_profile());
        validate(&doc).expect("profile-bearing cell is valid");
    }

    #[test]
    fn validate_rejects_malformed_profiles() {
        let with_profile = |p: Json| {
            let mut doc = minimal_manifest();
            let Json::Obj(ref mut pairs) = doc else {
                unreachable!()
            };
            let cells = &mut pairs.iter_mut().find(|(k, _)| k == "cells").unwrap().1;
            let Json::Arr(cells) = cells else {
                unreachable!()
            };
            cells[0].set("profile", p);
            doc
        };
        // Not an object.
        assert!(validate(&with_profile(Json::U64(1)))
            .unwrap_err()
            .contains("profile"));
        // Missing one histogram.
        let mut p = sample_profile();
        let Json::Obj(ref mut pairs) = p else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "rob_stall");
        assert!(validate(&with_profile(p))
            .unwrap_err()
            .contains("rob_stall"));
        // Missing one stat field inside a histogram.
        let mut p = sample_profile();
        let mut bare = Json::obj();
        bare.set("count", Json::U64(1));
        p.set("load_to_use", bare);
        assert!(validate(&with_profile(p))
            .unwrap_err()
            .contains("load_to_use"));
        // Non-monotone percentiles on a populated histogram.
        let mut p = sample_profile();
        let mut h = p.get("load_to_use").unwrap().clone();
        h.set("p90", Json::U64(1));
        p.set("load_to_use", h);
        assert!(validate(&with_profile(p)).unwrap_err().contains("monotone"));
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        assert!(validate(&Json::Arr(vec![])).is_err());

        let mut doc = minimal_manifest();
        let Json::Obj(ref mut pairs) = doc else {
            unreachable!()
        };
        pairs
            .iter_mut()
            .find(|(k, _)| k == "schema_version")
            .unwrap()
            .1 = Json::U64(99);
        assert!(validate(&doc).unwrap_err().contains("schema_version"));

        let mut doc = minimal_manifest();
        let Json::Obj(ref mut pairs) = doc else {
            unreachable!()
        };
        let bad_cell = {
            let mut c = Json::obj();
            c.set("experiment", Json::Str("x".into()));
            c.set("label", Json::Str("y".into()));
            c.set("status", Json::Str("exploded".into()));
            c.set("attempts", Json::U64(1));
            c.set("wall_ms", Json::F64(1.0));
            c.set("config_fingerprint", Json::Str("0".into()));
            c.set("checkpoint", Json::Str("off".into()));
            c
        };
        pairs.iter_mut().find(|(k, _)| k == "cells").unwrap().1 = Json::Arr(vec![bad_cell]);
        assert!(validate(&doc).unwrap_err().contains("status"));

        let mut doc = minimal_manifest();
        let Json::Obj(ref mut pairs) = doc else {
            unreachable!()
        };
        let bad_ckpt = {
            let mut c = Json::obj();
            c.set("experiment", Json::Str("x".into()));
            c.set("label", Json::Str("y".into()));
            c.set("status", Json::Str("ok".into()));
            c.set("attempts", Json::U64(1));
            c.set("wall_ms", Json::F64(1.0));
            c.set("config_fingerprint", Json::Str("0".into()));
            c.set("checkpoint", Json::Str("sideways".into()));
            c
        };
        pairs.iter_mut().find(|(k, _)| k == "cells").unwrap().1 = Json::Arr(vec![bad_ckpt]);
        assert!(validate(&doc).unwrap_err().contains("checkpoint"));
    }
}
