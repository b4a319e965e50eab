#!/usr/bin/env bash
# Smoke-check the benchmark contracts.
#
# Runs `pipeline_bench` (which itself asserts the memoized sweep engine
# beats per-consumer recomputation by >= 2x and that the fused streaming
# replay does not lose to the materialized pipeline), `replay_bench`
# (which asserts the data-oriented replay->simulate hot loop is >= 2x
# the in-tree reference model), `layout_bench` (which asserts the
# data-oriented micro-positioner is >= 2x the seed greedy on the RPC
# stack), `traffic_bench` (which asserts ALL beats BAD at p99 under
# sustained load on both stacks and that partitioned multi-worker
# serving scales >= 2x in simulated throughput) and `engine_bench`
# (which asserts the timing-wheel scheduler beats the reference binary
# heap >= 2x on schedule+drain at 128k pending events and >= 1.1x on the
# end-to-end 12-cell traffic sweep, with bit-identical reports) and
# `capacity_bench` (which climbs the offered-rate ladder per cell,
# asserts a knee is detected with a monotone curve, that the dispatch
# plane is bit-identical to the seed FIFO at the seed rate, and that the
# best cell sustains >= 2x the seed 7953 msg/s plateau) and
# `demux_bench` (which runs the policy x reference-stream demux matrix
# and asserts the winning cache policy strictly beats the seed one-entry
# cache on the adversarial conflict stream while costing no more on the
# Zipf stream, with the dispatch plane bit-identical to the reference
# runloop) and `adapt_bench` (which runs the online re-layout loop under
# phase-shifting workloads and asserts the adaptive run converges within
# 5% of the per-phase-best static layout after every shift, never loses
# to BAD, and that sampling adds zero simulated overhead) and
# `trace_bench` (which records every cell of the serving grid, asserts
# the traces replay bit-identically — including re-sliced to other
# executor counts and through the engine's memoized replay stage, with
# adaptive swap verdicts re-derived exactly — round-trips both trace
# codecs through files, and gates recording overhead at 10% over live
# serving) and `wire_bench` (which asserts the zero-copy pooled codec
# encodes+demuxes real TCP/IP frames >= 2x faster than the
# copy-and-materialize reference, that the buffer pool never allocates
# at steady state, that serving through bytes is bit-identical to the
# descriptor path on both planes, and that the checked-in pcap
# round-trips byte-identically), then verifies the JSON artifacts
# contain every key downstream tooling reads.
# Reduced-size capacity, demux, adapt, trace and wire sweeps also run twice
# into scratch files and the outputs are byte-compared — the
# cross-process bit-reproducibility probes.  Pass --reuse to validate
# existing JSON files without re-running the benchmarks (the two-run
# probes are skipped on --reuse).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" != "--reuse" ] || [ ! -f BENCH_pipeline.json ]; then
    cargo run -q --release -p protolat-bench --bin pipeline_bench
fi
if [ "${1:-}" != "--reuse" ] || [ ! -f BENCH_replay.json ]; then
    cargo run -q --release -p protolat-bench --bin replay_bench
fi
if [ "${1:-}" != "--reuse" ] || [ ! -f BENCH_layout.json ]; then
    cargo run -q --release -p protolat-bench --bin layout_bench
fi
if [ "${1:-}" != "--reuse" ] || [ ! -f BENCH_traffic.json ]; then
    cargo run -q --release -p protolat-bench --bin traffic_bench
fi
if [ "${1:-}" != "--reuse" ] || [ ! -f BENCH_engine.json ]; then
    cargo run -q --release -p protolat-bench --bin engine_bench
fi
if [ "${1:-}" != "--reuse" ] || [ ! -f BENCH_capacity.json ]; then
    cargo run -q --release -p protolat-bench --bin capacity_bench
fi
if [ "${1:-}" != "--reuse" ] || [ ! -f BENCH_demux.json ]; then
    cargo run -q --release -p protolat-bench --bin demux_bench
fi
if [ "${1:-}" != "--reuse" ] || [ ! -f BENCH_adapt.json ]; then
    cargo run -q --release -p protolat-bench --bin adapt_bench
fi
if [ "${1:-}" != "--reuse" ] || [ ! -f BENCH_trace.json ]; then
    cargo run -q --release -p protolat-bench --bin trace_bench
fi
if [ "${1:-}" != "--reuse" ] || [ ! -f BENCH_wire.json ]; then
    cargo run -q --release -p protolat-bench --bin wire_bench
fi

if [ "${1:-}" != "--reuse" ]; then
    # Cross-process bit-reproducibility: the reduced-size smoke sweep
    # must produce byte-identical JSON across two fresh processes (the
    # artifact carries no wall-clock timings).
    tmpdir=$(mktemp -d)
    trap 'rm -rf "$tmpdir"' EXIT
    CAPACITY_SMOKE=1 BENCH_CAPACITY_PATH="$tmpdir/cap_a.json" \
        cargo run -q --release -p protolat-bench --bin capacity_bench >/dev/null
    CAPACITY_SMOKE=1 BENCH_CAPACITY_PATH="$tmpdir/cap_b.json" \
        cargo run -q --release -p protolat-bench --bin capacity_bench >/dev/null
    cmp -s "$tmpdir/cap_a.json" "$tmpdir/cap_b.json" || {
        echo "bench_smoke: capacity smoke sweep not bit-reproducible across runs" >&2
        exit 1
    }
    DEMUX_SMOKE=1 BENCH_DEMUX_PATH="$tmpdir/dmx_a.json" \
        cargo run -q --release -p protolat-bench --bin demux_bench >/dev/null
    DEMUX_SMOKE=1 BENCH_DEMUX_PATH="$tmpdir/dmx_b.json" \
        cargo run -q --release -p protolat-bench --bin demux_bench >/dev/null
    cmp -s "$tmpdir/dmx_a.json" "$tmpdir/dmx_b.json" || {
        echo "bench_smoke: demux smoke matrix not bit-reproducible across runs" >&2
        exit 1
    }
    ADAPT_SMOKE=1 BENCH_ADAPT_PATH="$tmpdir/adp_a.json" \
        cargo run -q --release -p protolat-bench --bin adapt_bench >/dev/null
    ADAPT_SMOKE=1 BENCH_ADAPT_PATH="$tmpdir/adp_b.json" \
        cargo run -q --release -p protolat-bench --bin adapt_bench >/dev/null
    cmp -s "$tmpdir/adp_a.json" "$tmpdir/adp_b.json" || {
        echo "bench_smoke: adapt smoke run not bit-reproducible across runs" >&2
        exit 1
    }
    TRACE_SMOKE=1 BENCH_TRACE_PATH="$tmpdir/trc_a.json" \
        cargo run -q --release -p protolat-bench --bin trace_bench >/dev/null
    TRACE_SMOKE=1 BENCH_TRACE_PATH="$tmpdir/trc_b.json" \
        cargo run -q --release -p protolat-bench --bin trace_bench >/dev/null
    cmp -s "$tmpdir/trc_a.json" "$tmpdir/trc_b.json" || {
        echo "bench_smoke: trace smoke run not bit-reproducible across runs" >&2
        exit 1
    }
    WIRE_SMOKE=1 BENCH_WIRE_PATH="$tmpdir/wir_a.json" \
        cargo run -q --release -p protolat-bench --bin wire_bench >/dev/null
    WIRE_SMOKE=1 BENCH_WIRE_PATH="$tmpdir/wir_b.json" \
        cargo run -q --release -p protolat-bench --bin wire_bench >/dev/null
    cmp -s "$tmpdir/wir_a.json" "$tmpdir/wir_b.json" || {
        echo "bench_smoke: wire smoke run not bit-reproducible across runs" >&2
        exit 1
    }
fi

missing=0
for key in bench timing_consumers cold_consumers fresh_serial_ms \
           memoized_parallel_ms speedup rows counters runs images timings \
           cold_stats stages functional_run_ms image_build_ms \
           replay_materialized_ms replay_fused_ms; do
    if ! grep -q "\"$key\"" BENCH_pipeline.json; then
        echo "bench_smoke: BENCH_pipeline.json missing key \"$key\"" >&2
        missing=1
    fi
done
for cell in tcpip_std tcpip_all rpc_std rpc_all; do
    for metric in fused_fresh_ips fused_warm_ips materialized_fresh_ips \
                  materialized_warm_ips; do
        if ! grep -q "\"${cell}_${metric}\"" BENCH_replay.json; then
            echo "bench_smoke: BENCH_replay.json missing key \"${cell}_${metric}\"" >&2
            missing=1
        fi
    done
done
for key in min_fresh_speedup min_warm_speedup; do
    if ! grep -q "\"$key\"" BENCH_replay.json; then
        echo "bench_smoke: BENCH_replay.json missing key \"$key\"" >&2
        missing=1
    fi
done
for key in bench tcpip_micro_opt_ms tcpip_micro_ref_ms tcpip_micro_speedup \
           rpc_micro_opt_ms rpc_micro_ref_ms rpc_micro_speedup \
           cells_serial_ms cells_parallel_ms layout_requests \
           layout_computed layout_hit_rate; do
    if ! grep -q "\"$key\"" BENCH_layout.json; then
        echo "bench_smoke: BENCH_layout.json missing key \"$key\"" >&2
        missing=1
    fi
done
for stack in tcpip rpc; do
    for ver in bad std out clo pin all; do
        for metric in p50_us p99_us p999_us mps table_hit_rate \
                      cache_hit_rate miss_rate evictions memo_hit_rate \
                      memo_invalidations memo_period_p1 memo_period_p2 \
                      memo_period_p3 memo_period_p4 drops corruptions \
                      reorders duplicates rto_fires truncations malforms \
                      fragments bad_fcs; do
            if ! grep -q "\"${stack}_${ver}_${metric}\"" BENCH_traffic.json; then
                echo "bench_smoke: BENCH_traffic.json missing key \"${stack}_${ver}_${metric}\"" >&2
                missing=1
            fi
        done
    done
done
for key in workers offered_mps min_achieved_mps single_worker_mps \
           multi_worker_mps worker_speedup; do
    if ! grep -q "\"$key\"" BENCH_traffic.json; then
        echo "bench_smoke: BENCH_traffic.json missing key \"$key\"" >&2
        missing=1
    fi
done
for stack in tcpip rpc; do
    for ver in bad std out clo pin all; do
        for metric in knee_mps max_sustainable_mps refined_knee_mps curve; do
            if ! grep -q "\"${stack}_${ver}_${metric}\"" BENCH_capacity.json; then
                echo "bench_smoke: BENCH_capacity.json missing key \"${stack}_${ver}_${metric}\"" >&2
                missing=1
            fi
        done
    done
done
for key in bench workers start_rate_mps slo_p99_us best_cell \
           best_max_sustainable_mps seed_plateau_mps seed_rate_bit_identical; do
    if ! grep -q "\"$key\"" BENCH_capacity.json; then
        echo "bench_smoke: BENCH_capacity.json missing key \"$key\"" >&2
        missing=1
    fi
done
for policy in one_entry direct_mapped two_way_lru fifo random; do
    for stream in zipf stack_depth train conflict; do
        for metric in cache_hit_rate lookup_ns p99_us; do
            if ! grep -q "\"${policy}_${stream}_${metric}\"" BENCH_demux.json; then
                echo "bench_smoke: BENCH_demux.json missing key \"${policy}_${stream}_${metric}\"" >&2
                missing=1
            fi
        done
    done
done
for key in bench workers messages_per_worker sessions_per_worker rate_mps \
           policies streams slots conflict_cycle winner_policy \
           winner_conflict_cache_hit_rate seed_conflict_cache_hit_rate; do
    if ! grep -q "\"$key\"" BENCH_demux.json; then
        echo "bench_smoke: BENCH_demux.json missing key \"$key\"" >&2
        missing=1
    fi
done
for key in bench pending_events churn_ops fill_drain_wheel_ms \
           fill_drain_heap_ms fill_drain_speedup churn_wheel_ms \
           churn_heap_ms churn_speedup traffic_cells traffic_wheel_ms \
           traffic_heap_ms traffic_speedup traffic_bit_identical; do
    if ! grep -q "\"$key\"" BENCH_engine.json; then
        echo "bench_smoke: BENCH_engine.json missing key \"$key\"" >&2
        missing=1
    fi
done
for sched in mix theta; do
    for key in samples windows requests swaps_applied swaps_noop \
               memo_invalidations; do
        if ! grep -q "\"${sched}_${key}\"" BENCH_adapt.json; then
            echo "bench_smoke: BENCH_adapt.json missing key \"${sched}_${key}\"" >&2
            missing=1
        fi
    done
    for phase in p0 p1 p2; do
        for metric in adaptive_p99_us best_static_p99_us best_static \
                      bad_p99_us ratio; do
            if ! grep -q "\"${sched}_${phase}_${metric}\"" BENCH_adapt.json; then
                echo "bench_smoke: BENCH_adapt.json missing key \"${sched}_${phase}_${metric}\"" >&2
                missing=1
            fi
        done
    done
done
for key in bench workers stride window relayout_latency_ms \
           converged_within_5pct never_loses_to_bad \
           stride_zero_bit_identical single_candidate_bit_identical; do
    if ! grep -q "\"$key\"" BENCH_adapt.json; then
        echo "bench_smoke: BENCH_adapt.json missing key \"$key\"" >&2
        missing=1
    fi
done
for key in bench smoke workers messages_per_worker rate_mps cells \
           events_per_cell bytes_per_event_binary bytes_per_event_json \
           replay_bit_identical executor_probe executor_bit_identical \
           file_roundtrip_ok adapt_swaps adapt_verdicts_match; do
    if ! grep -q "\"$key\"" BENCH_trace.json; then
        echo "bench_smoke: BENCH_trace.json missing key \"$key\"" >&2
        missing=1
    fi
done
# The wall-clock overhead fields are present only in full (non-smoke)
# artifacts; a full BENCH_trace.json must carry them.
if grep -q '"smoke": 0' BENCH_trace.json; then
    for key in live_ms record_ms record_overhead_pct; do
        if ! grep -q "\"$key\"" BENCH_trace.json; then
            echo "bench_smoke: BENCH_trace.json missing key \"$key\"" >&2
            missing=1
        fi
    done
fi
for key in bench smoke packets rounds workers messages_per_worker \
           frames_encoded frames_demuxed payload_bytes bad_fcs truncated \
           malformed fragmented pool_allocs pool_recycled pool_grows \
           pool_high_water pool_recycle_rate wire_bit_identical \
           pcap_frames pcap_roundtrip_ok; do
    if ! grep -q "\"$key\"" BENCH_wire.json; then
        echo "bench_smoke: BENCH_wire.json missing key \"$key\"" >&2
        missing=1
    fi
done
# The codec timing fields are present only in full (non-smoke) artifacts.
if grep -q '"smoke": 0' BENCH_wire.json; then
    for key in zero_copy_ns_per_pkt reference_ns_per_pkt codec_speedup; do
        if ! grep -q "\"$key\"" BENCH_wire.json; then
            echo "bench_smoke: BENCH_wire.json missing key \"$key\"" >&2
            missing=1
        fi
    done
fi
[ "$missing" -eq 0 ] || exit 1

speedup=$(sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p' BENCH_pipeline.json)
if [ -z "$speedup" ]; then
    echo "bench_smoke: could not parse speedup" >&2
    exit 1
fi
awk -v s="$speedup" 'BEGIN { exit !(s >= 2.0) }' || {
    echo "bench_smoke: speedup ${speedup}x below the 2x floor" >&2
    exit 1
}

fused=$(sed -n 's/.*"replay_fused_ms": \([0-9.]*\).*/\1/p' BENCH_pipeline.json)
mater=$(sed -n 's/.*"replay_materialized_ms": \([0-9.]*\).*/\1/p' BENCH_pipeline.json)
if [ -z "$fused" ] || [ -z "$mater" ]; then
    echo "bench_smoke: could not parse replay stage costs" >&2
    exit 1
fi
awk -v f="$fused" -v m="$mater" 'BEGIN { exit !(f <= m) }' || {
    echo "bench_smoke: fused replay ${fused}ms slower than materialized ${mater}ms" >&2
    exit 1
}

replay_speedup=$(sed -n 's/.*"min_fresh_speedup": \([0-9.]*\).*/\1/p' BENCH_replay.json)
if [ -z "$replay_speedup" ]; then
    echo "bench_smoke: could not parse min_fresh_speedup" >&2
    exit 1
fi
awk -v s="$replay_speedup" 'BEGIN { exit !(s >= 2.0) }' || {
    echo "bench_smoke: replay fresh speedup ${replay_speedup}x below the 2x floor" >&2
    exit 1
}

layout_speedup=$(sed -n 's/.*"rpc_micro_speedup": \([0-9.]*\).*/\1/p' BENCH_layout.json)
if [ -z "$layout_speedup" ]; then
    echo "bench_smoke: could not parse rpc_micro_speedup" >&2
    exit 1
fi
awk -v s="$layout_speedup" 'BEGIN { exit !(s >= 2.0) }' || {
    echo "bench_smoke: layout rpc speedup ${layout_speedup}x below the 2x floor" >&2
    exit 1
}

worker_speedup=$(sed -n 's/.*"worker_speedup": \([0-9.]*\).*/\1/p' BENCH_traffic.json)
if [ -z "$worker_speedup" ]; then
    echo "bench_smoke: could not parse worker_speedup" >&2
    exit 1
fi
awk -v s="$worker_speedup" 'BEGIN { exit !(s >= 2.0) }' || {
    echo "bench_smoke: traffic worker speedup ${worker_speedup}x below the 2x floor" >&2
    exit 1
}

for stack in tcpip rpc; do
    bad=$(sed -n "s/.*\"${stack}_bad_p99_us\": \([0-9.]*\).*/\1/p" BENCH_traffic.json)
    all=$(sed -n "s/.*\"${stack}_all_p99_us\": \([0-9.]*\).*/\1/p" BENCH_traffic.json)
    if [ -z "$bad" ] || [ -z "$all" ]; then
        echo "bench_smoke: could not parse ${stack} p99 cells" >&2
        exit 1
    fi
    awk -v a="$all" -v b="$bad" 'BEGIN { exit !(a < b) }' || {
        echo "bench_smoke: ${stack} ALL p99 ${all}us not below BAD p99 ${bad}us" >&2
        exit 1
    }
done

engine_speedup=$(sed -n 's/.*"fill_drain_speedup": \([0-9.]*\).*/\1/p' BENCH_engine.json)
if [ -z "$engine_speedup" ]; then
    echo "bench_smoke: could not parse fill_drain_speedup" >&2
    exit 1
fi
awk -v s="$engine_speedup" 'BEGIN { exit !(s >= 2.0) }' || {
    echo "bench_smoke: scheduler fill+drain speedup ${engine_speedup}x below the 2x floor" >&2
    exit 1
}

engine_e2e=$(sed -n 's/.*"traffic_speedup": \([0-9.]*\).*/\1/p' BENCH_engine.json)
if [ -z "$engine_e2e" ]; then
    echo "bench_smoke: could not parse traffic_speedup" >&2
    exit 1
fi
awk -v s="$engine_e2e" 'BEGIN { exit !(s >= 1.1) }' || {
    echo "bench_smoke: scheduler e2e traffic speedup ${engine_e2e}x below the 1.1x floor" >&2
    exit 1
}

grep -q '"traffic_bit_identical": true' BENCH_engine.json || {
    echo "bench_smoke: wheel and reference-heap traffic sweeps not bit-identical" >&2
    exit 1
}

best_capacity=$(sed -n 's/.*"best_max_sustainable_mps": \([0-9.]*\).*/\1/p' BENCH_capacity.json)
seed_plateau=$(sed -n 's/.*"seed_plateau_mps": \([0-9.]*\).*/\1/p' BENCH_capacity.json)
if [ -z "$best_capacity" ] || [ -z "$seed_plateau" ]; then
    echo "bench_smoke: could not parse capacity floor values" >&2
    exit 1
fi
awk -v c="$best_capacity" -v p="$seed_plateau" 'BEGIN { exit !(c >= 2.0 * p) }' || {
    echo "bench_smoke: best sustainable rate ${best_capacity} msg/s below 2x the ${seed_plateau} msg/s seed plateau" >&2
    exit 1
}

grep -q '"seed_rate_bit_identical": true' BENCH_capacity.json || {
    echo "bench_smoke: dispatch plane not bit-identical to the seed FIFO at the seed rate" >&2
    exit 1
}

winner_rate=$(sed -n 's/.*"winner_conflict_cache_hit_rate": \([0-9.]*\).*/\1/p' BENCH_demux.json)
seed_rate=$(sed -n 's/.*"seed_conflict_cache_hit_rate": \([0-9.]*\).*/\1/p' BENCH_demux.json)
if [ -z "$winner_rate" ] || [ -z "$seed_rate" ]; then
    echo "bench_smoke: could not parse demux conflict hit rates" >&2
    exit 1
fi
awk -v w="$winner_rate" -v s="$seed_rate" 'BEGIN { exit !(w >= s + 0.30) }' || {
    echo "bench_smoke: demux winner hit rate ${winner_rate} not >= seed ${seed_rate} + 0.30 on the conflict stream" >&2
    exit 1
}
grep -q '"winner_beats_seed_adversarial": true' BENCH_demux.json || {
    echo "bench_smoke: winning demux policy does not beat the seed one-entry cache on the adversarial stream" >&2
    exit 1
}
grep -q '"zipf_not_slower": true' BENCH_demux.json || {
    echo "bench_smoke: winning demux policy regresses Zipf lookup latency vs the seed" >&2
    exit 1
}
grep -q '"bit_repro": true' BENCH_demux.json || {
    echo "bench_smoke: demux dispatch plane not bit-identical to the reference runloop" >&2
    exit 1
}
winner_policy=$(sed -n 's/.*"winner_policy": "\([a-z_]*\)".*/\1/p' BENCH_demux.json)

max_ratio=$(sed -n 's/.*_ratio": \([0-9.]*\).*/\1/p' BENCH_adapt.json | sort -g | tail -1)
if [ -z "$max_ratio" ]; then
    echo "bench_smoke: could not parse adapt convergence ratios" >&2
    exit 1
fi
awk -v r="$max_ratio" 'BEGIN { exit !(r <= 1.05) }' || {
    echo "bench_smoke: adaptive steady p99 drifted ${max_ratio}x above the per-phase best static layout" >&2
    exit 1
}
grep -q '"converged_within_5pct": true' BENCH_adapt.json || {
    echo "bench_smoke: adaptive loop failed to converge within 5% of the per-phase best static layout" >&2
    exit 1
}
grep -q '"never_loses_to_bad": true' BENCH_adapt.json || {
    echo "bench_smoke: adaptive loop lost to static BAD in some phase" >&2
    exit 1
}
grep -q '"stride_zero_bit_identical": true' BENCH_adapt.json || {
    echo "bench_smoke: sampling-off adaptive run not bit-identical to the static service" >&2
    exit 1
}
grep -q '"single_candidate_bit_identical": true' BENCH_adapt.json || {
    echo "bench_smoke: sampling perturbed the simulation (single-candidate run diverged)" >&2
    exit 1
}

grep -q '"replay_bit_identical": 1' BENCH_trace.json || {
    echo "bench_smoke: recorded traces did not replay bit-identically on every grid cell" >&2
    exit 1
}
grep -q '"executor_bit_identical": 1' BENCH_trace.json || {
    echo "bench_smoke: trace replay diverged when re-sliced to other executor counts" >&2
    exit 1
}
grep -q '"file_roundtrip_ok": 1' BENCH_trace.json || {
    echo "bench_smoke: trace file round trip (binary or JSON codec) lost events" >&2
    exit 1
}
grep -q '"adapt_verdicts_match": 1' BENCH_trace.json || {
    echo "bench_smoke: adaptive replay did not re-derive the recorded swap verdicts" >&2
    exit 1
}
trace_swaps=$(sed -n 's/.*"adapt_swaps": \([0-9]*\).*/\1/p' BENCH_trace.json)
if [ -z "$trace_swaps" ] || [ "$trace_swaps" -lt 1 ]; then
    echo "bench_smoke: adaptive trace probe recorded no swaps (workload never shifted?)" >&2
    exit 1
fi
trace_overhead="n/a"
if grep -q '"smoke": 0' BENCH_trace.json; then
    trace_overhead=$(sed -n 's/.*"record_overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' BENCH_trace.json)
    if [ -z "$trace_overhead" ]; then
        echo "bench_smoke: could not parse record_overhead_pct" >&2
        exit 1
    fi
    awk -v o="$trace_overhead" 'BEGIN { exit !(o <= 10.0) }' || {
        echo "bench_smoke: trace recording overhead ${trace_overhead}% above the 10% ceiling" >&2
        exit 1
    }
fi

grep -q '"wire_bit_identical": true' BENCH_wire.json || {
    echo "bench_smoke: serving through real bytes perturbed the simulation" >&2
    exit 1
}
grep -q '"pcap_roundtrip_ok": 1' BENCH_wire.json || {
    echo "bench_smoke: tests/data/tcpip_roundtrip.pcap did not re-emit byte-identically" >&2
    exit 1
}
grep -q '"pool_grows": 0' BENCH_wire.json || {
    echo "bench_smoke: packet-buffer pool allocated at steady state" >&2
    exit 1
}
wire_speedup="n/a"
if grep -q '"smoke": 0' BENCH_wire.json; then
    wire_speedup=$(sed -n 's/.*"codec_speedup": \([0-9.]*\).*/\1/p' BENCH_wire.json)
    if [ -z "$wire_speedup" ]; then
        echo "bench_smoke: could not parse codec_speedup" >&2
        exit 1
    fi
    awk -v s="$wire_speedup" 'BEGIN { exit !(s >= 2.0) }' || {
        echo "bench_smoke: zero-copy codec speedup ${wire_speedup}x below the 2x floor" >&2
        exit 1
    }
fi

echo "bench_smoke: OK (memoized sweep ${speedup}x, fused ${fused}ms <= materialized ${mater}ms, replay hot loop ${replay_speedup}x, layout placer ${layout_speedup}x vs reference, traffic workers ${worker_speedup}x, scheduler ${engine_speedup}x micro / ${engine_e2e}x e2e, capacity best ${best_capacity} msg/s >= 2x seed plateau, demux winner ${winner_policy} ${winner_rate} vs seed ${seed_rate} on conflict, adapt worst phase ratio ${max_ratio} <= 1.05, trace replay bit-identical with ${trace_swaps} verdicts matched and record overhead ${trace_overhead}% <= 10%, wire codec ${wire_speedup}x zero-copy vs reference)"
