//! Validates a run manifest produced by `experiments --emit-manifest`.
//!
//! ```text
//! validate-manifest <manifest.json> [<metrics.jsonl>...]
//! ```
//!
//! Exit codes: 0 valid, 1 invalid or unreadable, 2 usage.
//!
//! Extra arguments are treated as JSONL files: every non-empty line must
//! parse as a JSON object. Used by `scripts/ci.sh` to gate artifacts.

use cdp_obs::{validate, Json};

fn fail(msg: &str) -> ! {
    eprintln!("validate-manifest: {msg}");
    std::process::exit(1);
}

fn load(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: JSON parse error: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: validate-manifest <manifest.json> [<metrics.jsonl>...]");
        std::process::exit(2);
    }
    let path = &args[0];
    let doc = load(path);
    validate(&doc).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);

    for jsonl in &args[1..] {
        let text = std::fs::read_to_string(jsonl)
            .unwrap_or_else(|e| fail(&format!("cannot read {jsonl}: {e}")));
        let mut lines = 0usize;
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line).unwrap_or_else(|e| fail(&format!("{jsonl}:{}: {e}", n + 1)));
            if !matches!(v, Json::Obj(_)) {
                fail(&format!("{jsonl}:{}: line is not a JSON object", n + 1));
            }
            lines += 1;
        }
        println!("{jsonl}: {lines} JSONL record(s) OK");
    }
    println!("{path}: manifest OK ({cells} cell(s))");
}
