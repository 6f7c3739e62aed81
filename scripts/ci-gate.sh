#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors, including
# missing docs on public items), and the full test suite.
#
# Usage: scripts/ci-gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo test"
cargo test -q

echo "==> perfbench builds (its own package, outside the workspace)"
cargo build --release -q --manifest-path perfbench/Cargo.toml

echo "==> chaos suite (fault injection against the live runtime)"
cargo test -q -p velodrome-monitor --test chaos

echo "==> chaos smoke (fixed-seed fault-plan set, asserts the contract)"
cargo run --release -p velodrome-bench --bin chaos >/dev/null

echo "==> malformed trace input exits with code 4"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
printf '{"truncated' > "$tmp/bad.json"
set +e
cargo run --release -q -p velodrome-cli -- trace "$tmp/bad.json" >/dev/null 2>"$tmp/err"
code=$?
set -e
if [[ "$code" -ne 4 ]]; then
    echo "expected exit code 4 for malformed input, got $code" >&2
    cat "$tmp/err" >&2
    exit 1
fi

echo "==> metrics smoke (fixed-seed workload, JSONL snapshot contract)"
cargo run --release -q -p velodrome-cli -- check multiset --seed=1 --scale=4 \
    --metrics-out="$tmp/metrics.jsonl" --metrics-interval=200 >/dev/null
cargo run --release -q -p velodrome-cli -- metrics-verify "$tmp/metrics.jsonl" >/dev/null
for name in arena.allocated arena.cur_alive engine.ops engine.ladder watchdog.pauses_issued; do
    if ! grep -q "\"$name\"" "$tmp/metrics.jsonl"; then
        echo "metrics smoke: required metric $name missing from snapshots" >&2
        exit 1
    fi
done

echo "==> screened metrics smoke (screen gauges present alongside the base contract)"
for backend in velodrome-hybrid aerodrome; do
    cargo run --release -q -p velodrome-cli -- check multiset --seed=1 --scale=4 \
        --backend="$backend" \
        --metrics-out="$tmp/$backend.jsonl" --metrics-interval=200 >/dev/null
    cargo run --release -q -p velodrome-cli -- metrics-verify "$tmp/$backend.jsonl" \
        --require=aerodrome.joins,aerodrome.epoch_hits,hybrid.escalations,hybrid.graph_ops \
        >/dev/null
    for name in aerodrome.joins hybrid.escalations; do
        if ! grep -q "\"$name\"" "$tmp/$backend.jsonl"; then
            echo "$backend metrics smoke: required metric $name missing from snapshots" >&2
            exit 1
        fi
    done
done

echo "==> graph statistics readers (Table 1 node columns, GC timeline)"
cargo run --release -q -p velodrome-bench --bin graph_stats -- --scale=1 >/dev/null
cargo run --release -q -p velodrome-bench --bin gc_timeline -- --scale=1 >/dev/null

echo "==> batch smoke (fixed-seed corpus, JSONL schema + batch.* gauges)"
mkdir -p "$tmp/batch"
cargo run --release -q -p velodrome-cli -- record multiset --seed=1 --scale=2 \
    --out="$tmp/batch/a.json" >/dev/null
cargo run --release -q -p velodrome-cli -- record multiset --seed=2 --scale=2 \
    --out="$tmp/batch/b.json" >/dev/null
cargo run --release -q -p velodrome-cli -- convert "$tmp/batch/a.json" "$tmp/batch/a.vbt" >/dev/null
# JSON -> VBT -> JSON through the CLI is byte-identical (kept outside the
# batch directory so the report below still counts 3 traces).
cargo run --release -q -p velodrome-cli -- convert "$tmp/batch/a.vbt" "$tmp/a2.json" >/dev/null
if ! cmp "$tmp/batch/a.json" "$tmp/a2.json"; then
    echo "batch smoke: JSON -> VBT -> JSON round trip is not byte-identical" >&2
    exit 1
fi
cargo run --release -q -p velodrome-cli -- check-batch "$tmp/batch" --jobs=4 \
    --backend=velodrome-hybrid --report="$tmp/batch/report.jsonl" \
    --metrics-out="$tmp/batch/metrics.jsonl" >/dev/null
if [[ "$(wc -l < "$tmp/batch/report.jsonl")" -ne 4 ]]; then
    echo "batch smoke: expected 4 JSONL lines (3 traces + summary)" >&2
    cat "$tmp/batch/report.jsonl" >&2
    exit 1
fi
for field in '"path"' '"status":"ok"' '"warnings"' '"summary"' '"events_per_sec"'; do
    if ! grep -q "$field" "$tmp/batch/report.jsonl"; then
        echo "batch smoke: JSONL report is missing $field" >&2
        cat "$tmp/batch/report.jsonl" >&2
        exit 1
    fi
done
cargo run --release -q -p velodrome-cli -- metrics-verify "$tmp/batch/metrics.jsonl" \
    --require=batch.traces_checked,batch.traces_failed,batch.traces_quarantined,batch.events_total,batch.events_per_sec,batch.warnings_total,batch.jobs \
    >/dev/null

echo "==> JSON fast path: a padded twin gets byte-identical verdicts"
# The reader builds the writer's exact op shape straight from its buffer;
# a space after each `,` and `:` breaks that shape, so the twin decodes
# through the general path only. Both must give the same output.
sed 's/,"/, "/g; s/:{/: {/g' "$tmp/batch/a.json" > "$tmp/a-padded.json"
if cmp -s "$tmp/batch/a.json" "$tmp/a-padded.json"; then
    echo "JSON fast path: the padded twin is identical to its original" >&2
    exit 1
fi
for backend in velodrome all; do
    cargo run --release -q -p velodrome-cli -- trace "$tmp/batch/a.json" \
        --backend="$backend" > "$tmp/fast.out"
    cargo run --release -q -p velodrome-cli -- trace "$tmp/a-padded.json" \
        --backend="$backend" > "$tmp/general.out"
    if ! cmp "$tmp/fast.out" "$tmp/general.out"; then
        echo "JSON fast path: --backend=$backend output differs on the padded twin" >&2
        diff "$tmp/fast.out" "$tmp/general.out" | head -20 >&2
        exit 1
    fi
done

echo "==> truncated VBT input exits with code 4 and fails its batch line"
# Dropping the last byte removes the end-of-trace sentinel: the defect shows
# only after every operation has streamed into the backend.
mkdir -p "$tmp/badvbt"
head -c -1 "$tmp/batch/a.vbt" > "$tmp/badvbt/cut.vbt"
set +e
cargo run --release -q -p velodrome-cli -- trace "$tmp/badvbt/cut.vbt" >"$tmp/out" 2>"$tmp/err"
code=$?
set -e
if [[ "$code" -ne 4 || -s "$tmp/out" ]]; then
    echo "expected exit code 4 and no verdict for truncated VBT, got $code" >&2
    cat "$tmp/out" "$tmp/err" >&2
    exit 1
fi
cargo run --release -q -p velodrome-cli -- check-batch "$tmp/badvbt" \
    --report="$tmp/badvbt.jsonl" >/dev/null
if ! grep -q '"status":"error"' "$tmp/badvbt.jsonl"; then
    echo "truncated VBT: check-batch did not report \"status\":\"error\"" >&2
    cat "$tmp/badvbt.jsonl" >&2
    exit 1
fi

echo "==> huge thread id exits with code 4 and fails its batch line"
# One write by thread 3,000,000,000: an analysis sizing a per-thread table by
# that id would try to allocate gigabytes. A good trace shares the directory.
mkdir -p "$tmp/hugetid"
printf '%s' '{"ops":[{"Write":{"t":3000000000,"x":0}}],"names":{"threads":{},"vars":{},"locks":{},"labels":{}}}' \
    > "$tmp/hugetid/huge.json"
cp "$tmp/batch/b.json" "$tmp/hugetid/good.json"
set +e
cargo run --release -q -p velodrome-cli -- trace "$tmp/hugetid/huge.json" >"$tmp/out" 2>"$tmp/err"
code=$?
set -e
if [[ "$code" -ne 4 || -s "$tmp/out" ]] || ! grep -q 'byte 32: thread id' "$tmp/err"; then
    echo "expected exit code 4 with a byte offset for a huge thread id, got $code" >&2
    cat "$tmp/out" "$tmp/err" >&2
    exit 1
fi
cargo run --release -q -p velodrome-cli -- check-batch "$tmp/hugetid" \
    --report="$tmp/hugetid.jsonl" >/dev/null
if [[ "$(grep -c '"status":"error"' "$tmp/hugetid.jsonl")" -ne 1 ||
      "$(grep -c '"status":"ok"' "$tmp/hugetid.jsonl")" -ne 1 ]]; then
    echo "huge thread id: check-batch did not report one error and one ok line" >&2
    cat "$tmp/hugetid.jsonl" >&2
    exit 1
fi

echo "==> high thread ids run the vector-clock backends in bounded memory"
# 4,096 threads with ids 61440-65535, each running one transaction that
# writes x0. Clocks sized by the largest thread id would take 512 KB each
# and exhaust a 2 GB address space; clocks indexed by dense slot fit easily.
{
    printf '{"ops":['
    sep=''
    for ((t = 61440; t < 65536; t++)); do
        printf '%s{"Begin":{"t":%d,"l":0}},{"Write":{"t":%d,"x":0}},{"End":{"t":%d}}' \
            "$sep" "$t" "$t" "$t"
        sep=','
    done
    printf '],"names":{"threads":{},"vars":{},"locks":{},"labels":{}}}'
} > "$tmp/hightid.json"
velodrome="${CARGO_TARGET_DIR:-target}/release/velodrome"
for backend in aerodrome velodrome-hybrid hb-race all; do
    set +e
    (ulimit -v 2000000 && exec "$velodrome" trace "$tmp/hightid.json" --backend="$backend") \
        >/dev/null 2>"$tmp/err"
    code=$?
    set -e
    if [[ "$code" -ne 0 ]]; then
        echo "high thread ids: trace --backend=$backend exited $code under ulimit -v 2000000" >&2
        cat "$tmp/err" >&2
        exit 1
    fi
done

echo "==> cross-backend differential suite + conformance corpus + backend registry"
cargo test -q -p velodrome-integration --test atomicity_differential >/dev/null
cargo test -q -p velodrome-integration --test corpus_conformance >/dev/null
cargo test -q -p velodrome-integration --test backend_registry >/dev/null

echo "==> CI gate passed"
