#!/usr/bin/env bash
# Run every bench suite and gate, then check that the deterministic
# model section is reproducible across processes.
#
# 1. A full `bench` run: every suite writes its model section to
#    BENCH_<suite>.json and its host timings to target/bench/, and every
#    gate prints PASS/FAIL with its value and bound.
# 2. Every committed BENCH_<suite>.json must be byte-identical to what
#    that run wrote: the model sections change only when simulated
#    behaviour does, and then the new files are committed with it.
# 3. Two `bench --smoke` runs into scratch directories; their model
#    files must be byte-identical.
# 4. The repository benchmark (`benchmark/`, its own package) must
#    still build: it compiles against the crates' public types.
#
# Exits non-zero if any gate failed, any model file differs or the
# benchmark does not build, after running everything.
set -uo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p protolat-bench --bin bench || exit 1
bench=target/release/bench
status=0

"$bench" || status=1

for f in $(git ls-files 'BENCH_*.json'); do
    if git diff --quiet HEAD -- "$f"; then
        echo "SAME  $f vs the committed file"
    else
        echo "DIFF  $f vs the committed file"
        status=1
    fi
done

a=$(mktemp -d)
b=$(mktemp -d)
trap 'rm -rf "$a" "$b"' EXIT
"$bench" --smoke --out "$a" >/dev/null || { echo "bench_smoke: first smoke run failed a gate" >&2; status=1; }
"$bench" --smoke --out "$b" >/dev/null || { echo "bench_smoke: second smoke run failed a gate" >&2; status=1; }
for f in "$a"/BENCH_*.json; do
    if cmp "$f" "$b/$(basename "$f")"; then
        echo "SAME  $(basename "$f") across two smoke runs"
    else
        echo "DIFF  $(basename "$f") across two smoke runs"
        status=1
    fi
done

if cargo build -q --release --offline --manifest-path benchmark/Cargo.toml; then
    echo "BUILD ok    benchmark"
else
    echo "BUILD FAIL  benchmark"
    status=1
fi

exit "$status"
