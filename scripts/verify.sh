#!/usr/bin/env sh
# Full offline verification gate. The workspace has zero third-party
# dependencies, so every step must succeed with no registry access.
set -eu
cd "$(dirname "$0")/.."

cargo build --release --offline
# Debug-assertions build: the dev profile keeps every debug_assert! live.
cargo build --offline
# The whole suite — every crate's tests (`default-members`) plus the root
# integration tests — serially and at the default thread count. Query
# state lives in per-test engines, so the parallel run must match the
# serial one.
cargo test -q --offline -- --test-threads=1
cargo test -q --offline
cargo bench -p hef-bench --no-run --offline
# The benchmark (`hefbench/`, a workspace of its own) compiles against the
# crates' public names: build and test it here, so removing a name it uses
# fails this gate instead of the benchmark run. It keeps its own target
# directory: a shared one still compiles hef-kernels a second time.
cargo test -q --offline --manifest-path hefbench/Cargo.toml

# No process-global query configuration: nothing under the engine, the
# bench harness, the SSB planner, the storage layer or the integration tests
# mutates the environment; the engine reads it in exactly one place,
# `Engine::from_env`, and the SSB planner and the storage layer not at all.
if grep -rn 'set_var\|remove_var' crates/engine crates/bench crates/ssb/src crates/storage/src tests \
    --include='*.rs'; then
    echo "verify: FAIL — environment mutation; build an Engine instead" >&2
    exit 1
fi
if grep -rn 'env::var' crates/engine/src --include='*.rs' |
    grep -v 'crates/engine/src/engine.rs:.*Engine::from_vars(|k| std::env::var(k).ok())'; then
    echo "verify: FAIL — crates/engine/src reads the environment outside Engine::from_env" >&2
    exit 1
fi
if grep -rn 'env::var' crates/ssb/src crates/storage/src --include='*.rs'; then
    echo "verify: FAIL — the SSB planner or the storage layer reads the environment" >&2
    exit 1
fi

# The robustness contract (ISSUE 3): panicking paths in the hardened
# hef-core modules stay typed. Fail on any non-test unwrap()/expect().
for f in parse translate registry; do
    if sed '/#\[cfg(test)\]/,$d' "crates/hef/src/$f.rs" | grep -n '\.unwrap()\|\.expect('; then
        echo "verify: FAIL — unwrap()/expect() outside tests in crates/hef/src/$f.rs" >&2
        exit 1
    fi
done

# Same contract across the whole engine (ISSUE 6): the executor and the
# plan pipeline report bad plans as typed errors, never as panics.
for f in crates/engine/src/*.rs crates/engine/src/plan/*.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n '\.unwrap()\|\.expect('; then
        echo "verify: FAIL — unwrap()/expect() outside tests in $f" >&2
        exit 1
    fi
done

# Plan-file smoke: parse → optimize → lower → execute a non-canned star
# query; the subcommand asserts all four flavors match the naive lowering.
cargo run --release --offline -q -p hef-bench --bin repro -- \
    plan examples/plans/profit_by_region.plan --sf 0.002

# Prefetch-intrinsic hygiene: _mm_prefetch stays confined to the one
# kernels module that wraps it; everything else goes through that wrapper.
if grep -rn '_mm_prefetch' crates --include='*.rs' | grep -v 'crates/kernels/src/prefetch.rs'; then
    echo "verify: FAIL — _mm_prefetch outside crates/kernels/src/prefetch.rs" >&2
    exit 1
fi

# 32-bit column hygiene: the gather and widening intrinsics that read 32-bit
# values into 64-bit lanes stay behind the Simd64 ops of crates/hid
# (`gather_u32`, `loadu_u32`); kernels and the engine call those.
if grep -rnE '_mm(256|512)_(i64gather_epi32|cvtepu32_epi64)' crates src tests examples --include='*.rs' \
    | grep -v '^crates/hid/'; then
    echo "verify: FAIL — 32-bit gather/widen intrinsics outside crates/hid" >&2
    exit 1
fi

# One executor: the stage loop (filter → probe → aggregate) lives only in
# star.rs and the thread pool only in parallel.rs. The paged module supplies
# a batch source over pages and nothing else.
for pat in 'KernelIo::Probe' 'KernelIo::AggSum' 'compact_hits' 'grouped_accumulate' 'thread::scope'; do
    if grep -n "$pat" crates/engine/src/paged.rs; then
        echo "verify: FAIL — \`$pat\` in crates/engine/src/paged.rs (one stage loop, one scheduler)" >&2
        exit 1
    fi
done

# Trend gate over the *committed* snapshot archive: sparkline series must
# render and --strict must exit zero. This runs before any smoke bench
# rewrites a live snapshot: committed history is deterministic, whereas a
# fresh 3-sample smoke median on a shared host drifts ±10% and would make
# a strict gate flaky by construction (smoke re-measurements stay advisory
# — each bench prints its own compare table, and the advisory trend at the
# end of this script picks them up).
cargo run --release --offline -q -p hef-bench --bin repro -- trend --strict

# Probe bench smoke: the flat hash probe at each working-set size, the
# load-factor rows and the dense fused-probe rows run end to end, and the
# results/bench_probe_smoke.json and bench_probe_load_smoke.json snapshots
# are written (the committed full-run snapshots only change on full runs).
cargo bench -p hef-bench --bench probe --offline -- --smoke

# Cheap end-to-end run of the thread-scaling bench (asserts parallel output
# equals serial on a real SSB query).
cargo bench -p hef-bench --bench scaling --offline -- --smoke

# Trace smoke: a traced single-query run must produce Chrome trace JSON that
# the in-tree checker validates (repro report exits non-zero otherwise).
mkdir -p target
HEF_METRICS=1 cargo run --release --offline -q -p hef-bench --bin repro -- \
    q21 --sf 0.002 --repeats 1 --trace target/trace-smoke.json
cargo run --release --offline -q -p hef-bench --bin repro -- report target/trace-smoke.json

# Zero-overhead guard: with tracing/metrics disabled, the instrumented hot
# loop must stay within 2% of the uninstrumented baseline.
cargo bench -p hef-bench --bench obs_overhead --offline -- --assert

# Pipeline-tuning smoke: pick one query's pipeline row by the measured
# playoff, writing the registry to target/ so
# the committed results/tuned.txt is never rewritten, then reload the row
# through HEF_PIPELINE end to end. A mid-row truncated copy must degrade
# down the ladder (pipeline row → per-op rows → analytic) and still run
# the query.
mkdir -p target
cargo run --release --offline -q -p hef-bench --bin repro -- \
    tune-pipeline --sf 0.002 --query q21 --out target/tuned-smoke.txt
grep -q '^# hef tuned-operator registry v3$' target/tuned-smoke.txt
grep -q '^pipeline [0-9a-f]\{16\} = ' target/tuned-smoke.txt
HEF_PIPELINE=target/tuned-smoke.txt cargo run --release --offline -q -p hef-bench --bin repro -- \
    q21 --sf 0.002 --repeats 1
head -c $(($(wc -c < target/tuned-smoke.txt) - 24)) target/tuned-smoke.txt > target/tuned-torn.txt
HEF_PIPELINE=target/tuned-torn.txt cargo run --release --offline -q -p hef-bench --bin repro -- \
    q21 --sf 0.002 --repeats 1
# The committed registry is an artifact of `repro tune-pipeline --sf 1`; no
# verify step may change it.
if git rev-parse --git-dir > /dev/null 2>&1; then
    git diff --exit-code -- results/tuned.txt
fi

# Bench regression trend (advisory): diff the probe smoke snapshot against
# its archive. Never fails the gate — trends are for humans to read.
cargo bench -p hef-bench --bench probe --offline -- --smoke --compare || \
    echo "verify: note — bench compare reported an error (non-fatal)"

# Deadline smoke: a 1ms budget on a real SSB query must print a typed
# DeadlineExceeded outcome and exit 0 — no panic, no backtrace.
cargo run --release --offline -q -p hef-bench --bin repro -- \
    q31 --sf 0.05 --repeats 1 --deadline-ms 1 > target/deadline-smoke.txt 2>&1
grep -q 'DeadlineExceeded' target/deadline-smoke.txt
if grep -q 'panicked' target/deadline-smoke.txt; then
    echo "verify: FAIL — deadline smoke panicked instead of degrading" >&2
    exit 1
fi

# The obs zero-overhead guard must hold with the governor enabled too: an
# admitted (un-degraded) query's fast path adds no measurable cost.
HEF_MAX_QUERIES=8 HEF_MEM_BUDGET=4g \
    cargo bench -p hef-bench --bench obs_overhead --offline -- --assert

# Observatory gate (ISSUE 9). Flame smoke: an in-terminal profile of one
# query must render a non-empty self-time tree that satisfies the nesting
# invariant and reconciles morsel spans with the engine's ExecReport (the
# subcommand exits non-zero and omits the OK marker otherwise).
cargo run --release --offline -q -p hef-bench --bin repro -- \
    flame q11 --sf 0.002 > target/flame-smoke.txt 2>&1
grep -q 'profile: OK' target/flame-smoke.txt
grep -q 'morsel' target/flame-smoke.txt

# Advisory trend re-read now that the smoke benches above refreshed their
# live snapshots: renders the updated series for humans, never gates (the
# strict pass over committed history already ran before the rewrites).
cargo run --release --offline -q -p hef-bench --bin repro -- trend || \
    echo "verify: note — trend reported an error (non-fatal)"

# The 2% overhead budget must also hold with the full observatory ON:
# metrics, a fine in-memory capture, and per-round profile builds over a
# governed (deadlined) query.
cargo bench -p hef-bench --bench obs_overhead --offline -- --assert-enabled

# Out-of-core gate (ISSUE 10): run all 13 SSB queries at SF 0.1 from paged
# compressed columns with the page cache capped far below the dataset size
# (~43 MiB raw). The subcommand itself exits non-zero unless every query is
# bit-identical to the in-memory engine at 1 and 4 threads, the bounded
# cache actually evicted or declined pages (i.e. the run really was
# out-of-core; an admitting cache may keep its residents and decline the
# rest), AND at most
# 2.0 rows were decoded per scanned fact row: only the first filter decodes
# whole pages, so a silent fallback to full-page decode (~4.5) fails here.
# The decode counts repeat exactly from run to run.
HEF_PAGE_CACHE=4m cargo run --release --offline -q -p hef-bench --bin repro -- \
    paged --sf 0.1 > target/paged-smoke.txt 2>&1 || {
    cat target/paged-smoke.txt
    echo "verify: FAIL — out-of-core paged run diverged, never evicted or declined, or decoded whole pages" >&2
    exit 1
}
grep -q 'paged: OK' target/paged-smoke.txt
grep -q 'per scanned fact row' target/paged-smoke.txt

# Decode self-time must be attributable per worker in the paged profile.
cargo run --release --offline -q -p hef-bench --bin repro -- \
    flame q21 --sf 0.01 --paged > target/flame-paged-smoke.txt 2>&1
grep -q 'profile: OK' target/flame-paged-smoke.txt
grep -q 'decode' target/flame-paged-smoke.txt

echo "verify: OK"
