#!/usr/bin/env bash
# Tier-1 gate: offline build, full test suite, lint, and a smoke pass of
# every experiment through the parallel engine — both fault-free and
# under injected faults. No network access required — the workspace
# (including the std-only cdp-bench microbenchmarks) has zero registry
# dependencies. The PC sampler smoke also uses binutils' `addr2line` and
# ptrace of a child process, and is skipped where either is missing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt (check only) =="
cargo fmt --all --check

echo "== tests =="
cargo test -q --release --workspace
# The huge-tier RSS test simulates 50M uops, too slow for the debug
# tier-1 run, so it is #[ignore]d there and run here in release.
cargo test -q --release -p cdp-sim --test streaming_scale -- --ignored

echo "== benchmark build + tests (simbench, its own workspace) =="
# simbench/ builds the simulator crates as path dependencies outside the
# workspace, so nothing above compiles it: a crate API change that breaks
# the benchmark would otherwise surface only at the next benchmark run.
cargo test -q --release --manifest-path simbench/Cargo.toml

echo "== experiments all --smoke --jobs 2 =="
./target/release/experiments all --smoke --jobs 2 > /dev/null

echo "== PC sampler smoke (pcsample over experiments onecell) =="
# The sampler (crates/cdp-bench/src/bin/pcsample.rs) must trace a real
# run to its end, pass on the child's exit code, and attribute host time
# to the simulator's crates through addr2line. It needs binutils'
# `addr2line` and a host that lets a process ptrace its own child; where
# either is missing the step is skipped with a message, since neither
# says anything about the simulator.
if ! command -v addr2line > /dev/null; then
    echo "pcsample smoke: skipped (no addr2line on PATH)"
elif ! ./target/release/pcsample -- sleep 0.1 > /dev/null 2> /tmp/cdp-pcsample-probe.err \
    && grep -q 'PTRACE_SEIZE of pid [0-9]* failed' /tmp/cdp-pcsample-probe.err; then
    echo "pcsample smoke: skipped (ptrace refused: $(tail -n 1 /tmp/cdp-pcsample-probe.err))"
else
    ./target/release/pcsample -- ./target/release/experiments onecell --quick --jobs 1 \
        > /tmp/cdp-pcsample.out 2> /dev/null || {
        echo "pcsample smoke: sampler or child failed" >&2
        exit 1
    }
    grep -Eq '^pcsample: [1-9][0-9]* samples .*\(exit 0\)$' /tmp/cdp-pcsample.out \
        && grep -Eq '%  +[0-9]+  cdp-core$' /tmp/cdp-pcsample.out || {
        echo "pcsample smoke: no samples attributed to cdp-core" >&2
        cat /tmp/cdp-pcsample.out >&2
        exit 1
    }
fi

echo "== observability smoke (byte-identity + manifest validation) =="
# The default path must be byte-identical with all observability flags
# off vs. on (and at different --jobs counts), and the emitted manifest
# must parse and carry the required schema keys.
rm -rf /tmp/cdp-obs-ci
./target/release/experiments tlb --smoke --jobs 2 > /tmp/cdp-obs-ci-plain.out
./target/release/experiments tlb --smoke --jobs 1 --trace --metrics-window 16384 \
    --emit-manifest /tmp/cdp-obs-ci > /tmp/cdp-obs-ci-obs.out 2> /dev/null
cmp /tmp/cdp-obs-ci-plain.out /tmp/cdp-obs-ci-obs.out || {
    echo "observability smoke: stdout differs with tracing enabled" >&2
    exit 1
}
./target/release/validate-manifest /tmp/cdp-obs-ci/manifest.json \
    /tmp/cdp-obs-ci/metrics.jsonl /tmp/cdp-obs-ci/trace.jsonl

echo "== profile/status smoke (byte-identity + run-explain self-diff) =="
# Latency histograms and the live status stream (DESIGN.md §15) must be
# behavior-neutral: stdout with --profile-hist + --status-jsonl on must
# be byte-identical to the plain run at --jobs 1 and 4, the status
# sidecars must actually stream events, the profile-bearing manifests
# must validate, and run-explain on the two same-config runs must
# report zero divergence (exit 0).
rm -rf /tmp/cdp-prof-ci-1 /tmp/cdp-prof-ci-4
./target/release/experiments tlb table2 --smoke --jobs 2 > /tmp/cdp-prof-plain.out
for jobs in 1 4; do
    ./target/release/experiments tlb table2 --smoke --jobs "$jobs" \
        --profile-hist --metrics-window 16384 \
        --status-jsonl "/tmp/cdp-prof-status-$jobs.jsonl" \
        --emit-manifest "/tmp/cdp-prof-ci-$jobs" \
        > "/tmp/cdp-prof-obs-$jobs.out" 2> /dev/null
    cmp /tmp/cdp-prof-plain.out "/tmp/cdp-prof-obs-$jobs.out" || {
        echo "profile smoke: stdout differs with histograms/status at --jobs $jobs" >&2
        exit 1
    }
    test -s "/tmp/cdp-prof-status-$jobs.jsonl" || {
        echo "profile smoke: status stream empty at --jobs $jobs" >&2
        exit 1
    }
    grep -q '"event":"done"' "/tmp/cdp-prof-status-$jobs.jsonl" || {
        echo "profile smoke: status stream missing done events at --jobs $jobs" >&2
        exit 1
    }
    ./target/release/validate-manifest "/tmp/cdp-prof-ci-$jobs/manifest.json" \
        "/tmp/cdp-prof-ci-$jobs/metrics.jsonl"
done
# The JSONL series follow the cells' report order, so they too must be
# byte-identical at any --jobs count.
cmp /tmp/cdp-prof-ci-1/metrics.jsonl /tmp/cdp-prof-ci-4/metrics.jsonl || {
    echo "profile smoke: metrics.jsonl differs between --jobs 1 and 4" >&2
    exit 1
}
./target/release/run-explain /tmp/cdp-prof-ci-1 /tmp/cdp-prof-ci-4 > /dev/null || {
    echo "profile smoke: run-explain found divergence between same-config runs" >&2
    exit 1
}

echo "== result-cache smoke (byte-identity cache on vs off) =="
# The fingerprint-keyed result cache must never change rendered output:
# the same ids at different --jobs counts, cache on vs --no-result-cache,
# must produce byte-identical stdout.
./target/release/experiments tlb table2 --smoke --jobs 2 > /tmp/cdp-rc-on.out
./target/release/experiments tlb table2 --smoke --jobs 4 --no-result-cache \
    > /tmp/cdp-rc-off.out
cmp /tmp/cdp-rc-on.out /tmp/cdp-rc-off.out || {
    echo "result-cache smoke: stdout differs between cache on and off" >&2
    exit 1
}

echo "== fast-forward smoke (byte-identity fast path vs reference schedule) =="
# The core's fast path must be behavior-neutral. Its idle-cycle jumps
# and wake-up issue selection, and the reference schedule forced by
# --no-fast-forward (every cycle stepped, the whole ROB scanned at
# issue), must render byte-identical stdout (DESIGN.md §13, §13.1).
# Every experiment plus the tournament runs every benchmark and every
# engine (STAB, delta, jump, perceptron) through both issue paths.
./target/release/experiments all tournament --smoke --jobs 2 > /tmp/cdp-ff-on.out
./target/release/experiments all tournament --smoke --jobs 2 --no-fast-forward \
    > /tmp/cdp-ff-off.out
cmp /tmp/cdp-ff-on.out /tmp/cdp-ff-off.out || {
    echo "fast-forward smoke: stdout differs with --no-fast-forward" >&2
    exit 1
}

echo "== streaming smoke (byte-identity + capped large tier) =="
# The streaming engine must be behavior-neutral: forcing it everywhere
# with --stream renders byte-identical stdout at any --jobs count. Then
# one capped large-tier cell (~100M uops, one benchmark) must complete
# with the streaming engine and record uop-throughput accounting
# (`muops`) in its manifest — the tier is only reachable streamed, so
# completion alone proves the O(window) path end to end.
./target/release/experiments tlb --smoke --jobs 2 > /tmp/cdp-stream-plain.out
for jobs in 1 4; do
    ./target/release/experiments tlb --smoke --stream --jobs "$jobs" \
        > /tmp/cdp-stream-on.out
    cmp /tmp/cdp-stream-plain.out /tmp/cdp-stream-on.out || {
        echo "streaming smoke: stdout differs with --stream at --jobs $jobs" >&2
        exit 1
    }
done
rm -rf /tmp/cdp-stream-large
./target/release/experiments onecell --scale large --jobs 1 \
    --emit-manifest /tmp/cdp-stream-large > /dev/null 2> /dev/null
./target/release/validate-manifest /tmp/cdp-stream-large/manifest.json
grep -q '"muops":' /tmp/cdp-stream-large/manifest.json || {
    echo "streaming smoke: large-tier manifest missing muops accounting" >&2
    exit 1
}

echo "== checkpoint smoke (kill mid-flight, resume, byte-identity) =="
# Snapshot/resume (DESIGN.md §12): a sweep killed mid-flight and resumed
# from its checkpoints must produce byte-identical stdout to an
# uninterrupted run, at any --jobs count, and must really resume. A smoke
# cell retires its whole run in one window and never writes a checkpoint,
# so the sweep runs at quick scale, where a tight --checkpoint-every keeps
# a checkpoint on disk for most of each cell's life. The run is killed as
# soon as one exists (SIGKILL: no graceful teardown), and the resumed
# run's manifest must show at least one cell resumed from disk.
rm -rf /tmp/cdp-ckpt-ci /tmp/cdp-ckpt-manifest
mkdir -p /tmp/cdp-ckpt-ci
./target/release/experiments tlb table2 --quick --jobs 2 > /tmp/cdp-ckpt-ref.out
for jobs in 1 4; do
    rm -rf /tmp/cdp-ckpt-ci/*.snap /tmp/cdp-ckpt-ci/*.part /tmp/cdp-ckpt-manifest
    ./target/release/experiments tlb table2 --quick --jobs "$jobs" \
        --checkpoint-dir /tmp/cdp-ckpt-ci --checkpoint-every 50000 \
        > /dev/null 2> /dev/null &
    pid=$!
    for _ in $(seq 600); do
        if [ "$(find /tmp/cdp-ckpt-ci -name '*.snap' | wc -l)" -ge 1 ]; then
            break
        fi
        sleep 0.05
    done
    kill -9 "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
    ./target/release/experiments tlb table2 --quick --jobs "$jobs" \
        --checkpoint-dir /tmp/cdp-ckpt-ci --checkpoint-every 50000 --resume \
        --emit-manifest /tmp/cdp-ckpt-manifest > /tmp/cdp-ckpt-resumed.out
    cmp /tmp/cdp-ckpt-ref.out /tmp/cdp-ckpt-resumed.out || {
        echo "checkpoint smoke: resumed stdout differs at --jobs $jobs" >&2
        exit 1
    }
    grep -q '"checkpoint":"resumed"' /tmp/cdp-ckpt-manifest/manifest.json || {
        echo "checkpoint smoke: no cell resumed from a checkpoint at --jobs $jobs" >&2
        exit 1
    }
done
# Completed cells delete their checkpoints and publish leaves no temp
# files: the dir must be empty.
leftover=$(find /tmp/cdp-ckpt-ci -name '*.snap' | wc -l)
if [ "$leftover" -ne 0 ]; then
    echo "checkpoint smoke: $leftover checkpoint(s) left after completion" >&2
    exit 1
fi
litter=$(find /tmp/cdp-ckpt-ci -name '*.part' | wc -l)
if [ "$litter" -ne 0 ]; then
    echo "checkpoint smoke: $litter temp file(s) left after completion" >&2
    exit 1
fi

echo "== STAB checkpoint smoke (kill a live fig11 sweep, resume, byte-identity) =="
# The checkpoint smoke above runs no Markov STAB, and at smoke scale the
# STAB never predicts. fig11 at quick scale trains one: kill the sweep
# while trained STAB cells hold checkpoints, resume, and require
# byte-identical stdout with at least one STAB cell resumed from disk.
rm -rf /tmp/cdp-ckpt-stab /tmp/cdp-ckpt-stab-manifest /tmp/cdp-ckpt-stab.jsonl
mkdir -p /tmp/cdp-ckpt-stab
./target/release/experiments fig11 --quick --jobs 2 > /tmp/cdp-ckpt-stab-ref.out
./target/release/experiments fig11 --quick --jobs 2 \
    --checkpoint-dir /tmp/cdp-ckpt-stab --checkpoint-every 1000000 \
    --status-jsonl /tmp/cdp-ckpt-stab.jsonl > /dev/null 2> /dev/null &
pid=$!
# Baseline cells run first. Kill once a markov_1/2 cell has finished (the
# STAB cells in flight are then well into training) and both workers'
# cells have a checkpoint on disk.
for _ in $(seq 600); do
    if grep -q '"event":"done","label":"markov_1/2/' /tmp/cdp-ckpt-stab.jsonl 2> /dev/null \
        && [ "$(find /tmp/cdp-ckpt-stab -name '*.snap' | wc -l)" -ge 2 ]; then
        break
    fi
    sleep 0.05
done
kill -9 "$pid" 2> /dev/null || true
wait "$pid" 2> /dev/null || true
./target/release/experiments fig11 --quick --jobs 2 \
    --checkpoint-dir /tmp/cdp-ckpt-stab --checkpoint-every 1000000 --resume \
    --emit-manifest /tmp/cdp-ckpt-stab-manifest > /tmp/cdp-ckpt-stab-resumed.out 2> /dev/null
cmp /tmp/cdp-ckpt-stab-ref.out /tmp/cdp-ckpt-stab-resumed.out || {
    echo "STAB checkpoint smoke: resumed fig11 stdout differs" >&2
    exit 1
}
grep -Eq '"label":"markov_[^"]*","status":"ok",[^}]*"checkpoint":"resumed"' \
    /tmp/cdp-ckpt-stab-manifest/manifest.json || {
    echo "STAB checkpoint smoke: no STAB cell resumed from a checkpoint" >&2
    exit 1
}
leftover=$(find /tmp/cdp-ckpt-stab -name '*.snap' | wc -l)
if [ "$leftover" -ne 0 ]; then
    echo "STAB checkpoint smoke: $leftover checkpoint(s) left after completion" >&2
    exit 1
fi
litter=$(find /tmp/cdp-ckpt-stab -name '*.part' | wc -l)
if [ "$litter" -ne 0 ]; then
    echo "STAB checkpoint smoke: $litter temp file(s) left after completion" >&2
    exit 1
fi

echo "== fault-injection smoke (expect partial-failure exit 3) =="
# Unmap two trace pages of slsb: its cells must gap out, every other
# cell must complete, and the run must exit with the documented
# partial-failure code.
set +e
./target/release/experiments table2 --smoke --jobs 2 --keep-going \
    --fault unmap:slsb:7:2 > /dev/null 2> /tmp/cdp-fault-smoke.err
code=$?
set -e
if [ "$code" -ne 3 ]; then
    echo "fault smoke: expected exit 3 (partial failure), got $code" >&2
    cat /tmp/cdp-fault-smoke.err >&2
    exit 1
fi
grep -q "FAILURE REPORT" /tmp/cdp-fault-smoke.err || {
    echo "fault smoke: missing failure report on stderr" >&2
    exit 1
}
# fig1 and pollution are not grids but must gap per cell too: a b2e
# fault leaves one report entry per b2e cell and skips no experiment.
set +e
./target/release/experiments fig1 pollution table2 --smoke --jobs 2 --keep-going \
    --fault unmap:b2e:7:2 > /dev/null 2> /tmp/cdp-fault-cells.err
code=$?
set -e
if [ "$code" -ne 3 ]; then
    echo "fault smoke: fig1 pollution table2 expected exit 3, got $code" >&2
    cat /tmp/cdp-fault-cells.err >&2
    exit 1
fi
for cell in '[fig1] b2e:' '[pollution] clean/b2e:' '[pollution] dirty/b2e:' \
    '[table2] 1mb/b2e:' '[table2] 4mb/b2e:'; do
    sed -n '/FAILURE REPORT/,$p' /tmp/cdp-fault-cells.err | grep -qF "$cell" || {
        echo "fault smoke: no '$cell' entry in the failure report" >&2
        exit 1
    }
done
if grep -qF '(whole experiment)' /tmp/cdp-fault-cells.err; then
    echo "fault smoke: an experiment failed whole instead of per cell" >&2
    exit 1
fi
# backward's six cells run through the same cell runner, and its dlist
# images through the same fault-plan step as benchmark images: failing
# every demand page walk, or unmapping trace pages of every image, leaves
# one report entry per cell and does not skip the experiment.
for fault in 'walk:*:1:demand' 'unmap:*:7:2'; do
    set +e
    ./target/release/experiments backward --smoke --jobs 2 --keep-going \
        --fault "$fault" > /dev/null 2> /tmp/cdp-fault-backward.err
    code=$?
    set -e
    if [ "$code" -ne 3 ]; then
        echo "fault smoke: backward under $fault expected exit 3, got $code" >&2
        cat /tmp/cdp-fault-backward.err >&2
        exit 1
    fi
    for direction in forward backward; do
        for config in base p2.n0 p0.n2; do
            cell="[backward] $direction/$config:"
            sed -n '/FAILURE REPORT/,$p' /tmp/cdp-fault-backward.err | grep -qF "$cell" || {
                echo "fault smoke: no '$cell' entry under $fault" >&2
                exit 1
            }
        done
    done
    if grep -qF '(whole experiment)' /tmp/cdp-fault-backward.err; then
        echo "fault smoke: backward failed whole under $fault instead of per cell" >&2
        exit 1
    fi
done

echo "== store chaos smoke (SIGKILL mid-sweep, fsck, warm replay, zero misses) =="
# Persistent result store (DESIGN.md §14): repeatedly SIGKILL a
# store-enabled sweep mid-flight — the store must stay consistent
# through every crash (store-fsck repairs and then scans clean), a cold
# completion run must be byte-identical to a store-less reference, a
# warm cross-process re-run must replay every cell from disk (manifest
# records zero store misses) with byte-identical stdout, and a clean run
# over a store that a faulted run wrote must not replay its results.
rm -rf /tmp/cdp-store-ci /tmp/cdp-store-ci-manifest
mkdir -p /tmp/cdp-store-ci
./target/release/experiments tlb table2 --smoke --jobs 2 --no-result-cache \
    > /tmp/cdp-store-ref.out
for i in 1 2 3; do
    ./target/release/experiments tlb table2 --smoke --jobs 2 \
        --result-store /tmp/cdp-store-ci > /dev/null 2> /dev/null &
    pid=$!
    sleep 1
    kill -9 "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
    ./target/release/store-fsck /tmp/cdp-store-ci --repair > /dev/null || {
        echo "store smoke: fsck --repair failed after kill #$i" >&2
        exit 1
    }
done
./target/release/experiments tlb table2 --smoke --jobs 4 \
    --result-store /tmp/cdp-store-ci > /tmp/cdp-store-cold.out
cmp /tmp/cdp-store-ref.out /tmp/cdp-store-cold.out || {
    echo "store smoke: cold store-backed stdout differs from reference" >&2
    exit 1
}
./target/release/experiments tlb table2 --smoke --jobs 2 \
    --result-store /tmp/cdp-store-ci --emit-manifest /tmp/cdp-store-ci-manifest \
    > /tmp/cdp-store-warm.out 2> /dev/null
cmp /tmp/cdp-store-ref.out /tmp/cdp-store-warm.out || {
    echo "store smoke: warm store-backed stdout differs from reference" >&2
    exit 1
}
grep -q '"result_store_misses":0' /tmp/cdp-store-ci-manifest/manifest.json || {
    echo "store smoke: warm re-run did not replay every cell from disk" >&2
    exit 1
}
./target/release/store-fsck /tmp/cdp-store-ci > /dev/null || {
    echo "store smoke: store dirty after warm replay" >&2
    exit 1
}
litter=$(find /tmp/cdp-store-ci -name '*.part' | wc -l)
if [ "$litter" -ne 0 ]; then
    echo "store smoke: $litter temp file(s) left after warm replay" >&2
    exit 1
fi
# A fault plan edits the workload images, so what a faulted run stores
# belongs to other cells: a clean run over a store that a faulted run
# wrote must simulate afresh and print the reference bytes.
rm -rf /tmp/cdp-store-fault-ci
./target/release/experiments tlb table2 --smoke --jobs 2 --fault 'corrupt:*:7:4096' \
    --result-store /tmp/cdp-store-fault-ci > /dev/null
./target/release/experiments tlb table2 --smoke --jobs 2 \
    --result-store /tmp/cdp-store-fault-ci > /tmp/cdp-store-fault-clean.out
cmp /tmp/cdp-store-ref.out /tmp/cdp-store-fault-clean.out || {
    echo "store smoke: a clean run replayed results a faulted run stored" >&2
    exit 1
}

# fig1, pollution and backward replay from the store like the grids: a
# warm re-run in a fresh process serves all 42 smoke cells (6 fig1 + 30
# pollution + 6 backward) from disk with the storeless bytes, both
# manifests list every cell, and fig1's metrics windows validate.
rm -rf /tmp/cdp-store-studies-ci /tmp/cdp-store-studies-cold /tmp/cdp-store-studies-warm
./target/release/experiments fig1 pollution backward --smoke --jobs 2 \
    > /tmp/cdp-store-studies-ref.out
for run in cold warm; do
    ./target/release/experiments fig1 pollution backward --smoke --jobs 2 \
        --result-store /tmp/cdp-store-studies-ci \
        --emit-manifest "/tmp/cdp-store-studies-$run" \
        > "/tmp/cdp-store-studies-$run.out" 2> /dev/null
    cmp /tmp/cdp-store-studies-ref.out "/tmp/cdp-store-studies-$run.out" || {
        echo "store smoke: $run fig1/pollution/backward stdout differs from reference" >&2
        exit 1
    }
    grep -q '"cells_total":42' "/tmp/cdp-store-studies-$run/manifest.json" || {
        echo "store smoke: $run manifest does not list the 42 study cells" >&2
        exit 1
    }
    ./target/release/validate-manifest "/tmp/cdp-store-studies-$run/manifest.json" \
        "/tmp/cdp-store-studies-$run/metrics.jsonl"
done
grep -q '"result_store_hits":42' /tmp/cdp-store-studies-warm/manifest.json \
    && grep -q '"result_store_misses":0' /tmp/cdp-store-studies-warm/manifest.json || {
    echo "store smoke: warm fig1/pollution/backward did not replay all 42 cells from disk" >&2
    exit 1
}

echo "== tournament smoke (equal-silicon zoo, gating win, budget refusal) =="
# The prefetcher tournament must run every engine plus both perceptron
# hybrids at a matched table budget, render byte-identically at any
# --jobs count, emit a manifest (with the per-cell wasted-prefetch
# counters) that validates, show the perceptron gate actually cutting
# waste (hybrid wasted < bare CDP on at least one benchmark), and refuse
# a budget no engine geometry can realize (exit 2, before simulating).
rm -rf /tmp/cdp-tourney-ci
./target/release/experiments tournament --quick --jobs 2 --budget 8192 \
    --emit-manifest /tmp/cdp-tourney-ci > /tmp/cdp-tourney-2.out 2> /dev/null
./target/release/experiments tournament --quick --jobs 4 --budget 8192 \
    > /tmp/cdp-tourney-4.out
cmp /tmp/cdp-tourney-2.out /tmp/cdp-tourney-4.out || {
    echo "tournament smoke: stdout differs between --jobs 2 and --jobs 4" >&2
    exit 1
}
for engine in markov delta jump cdp 'cdp+perceptron' 'stride+perceptron'; do
    grep -q "^$engine " /tmp/cdp-tourney-2.out || {
        echo "tournament smoke: engine $engine missing from the grid" >&2
        exit 1
    }
done
./target/release/validate-manifest /tmp/cdp-tourney-ci/manifest.json
grep -q '"pf_wasted":' /tmp/cdp-tourney-ci/manifest.json || {
    echo "tournament smoke: manifest missing wasted-prefetch counters" >&2
    exit 1
}
grep -Eq 'gating check: cdp\+perceptron wasted < cdp on [1-9][0-9]*/' \
    /tmp/cdp-tourney-2.out || {
    echo "tournament smoke: perceptron gate never beat bare CDP on waste" >&2
    exit 1
}
set +e
./target/release/experiments tournament --smoke --budget 64 > /dev/null 2> /dev/null
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "tournament smoke: expected exit 2 for un-normalizable budget, got $code" >&2
    exit 1
fi

echo "ci: OK"
