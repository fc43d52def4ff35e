#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), full test suite.
# The workspace builds offline against the vendored stand-in crates.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test =="
cargo test --workspace --offline -q

echo "== completion-token API gate =="
# The Completion<T> token in trail-sim is the one completion primitive;
# no layer may reintroduce a bespoke boxed-closure completion typedef.
if grep -rn --include='*.rs' 'Box<dyn FnOnce' crates src \
    | grep -v '^crates/sim/' \
    | grep -v 'EventFn\|schedule_at\|schedule_in'; then
  echo "found a bespoke Box<dyn FnOnce> completion callback outside trail-sim" >&2
  exit 1
fi

echo "== target-factory gate =="
# StackBuilder (build / build_target) in the umbrella crate is the one
# way to construct a replay/bench stack; no crate may grow a private
# factory, boot MultiTrail or wrap a stack adapter by hand again, and the
# retired raw-disk boot path and volume adapter stay gone.
if grep -rn --include='*.rs' \
    'fn build_target\|struct MultiStack\|fn prealloc\|MultiTrail::start\|VolumeStack\|start_with_data_drivers\|StandardStack::new\|TrailStack::new' \
    crates/trace crates/bench; then
  echo "found a private stack factory outside the umbrella crate" >&2
  exit 1
fi

echo "== run_all --quick smoke =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release --offline -p trail-bench --bin run_all -- \
  --quick --out-dir "$smoke_dir" >/dev/null
for name in micro table1 fig3 fig4 ablation fs_compare table2 table3 track_util \
             replay_synthetic overload_sweep replay_tpcc replaystream serve serve_sweep \
             raid recovery; do
  test -s "$smoke_dir/BENCH_$name.json" \
    || { echo "run_all --quick did not produce BENCH_$name.json" >&2; exit 1; }
done

echo "== virtual-time fixed point (run_all --quick artifacts match committed digests) =="
# Every quick artifact is virtual-time only, so a change that should not
# move results (a performance or refactoring change) must reproduce each
# one byte for byte. A change that moves results on purpose regenerates
# perf/run_all_quick.sha256 with `sha256sum BENCH_*.json` in its output
# directory and says why.
digests="$PWD/perf/run_all_quick.sha256"
(cd "$smoke_dir" && sha256sum --quiet -c "$digests") \
  || { echo "run_all --quick artifacts differ from perf/run_all_quick.sha256" >&2; exit 1; }

echo "== fault-plane gate =="
# FaultPlan on the stack's FaultClock is the one way harnesses schedule
# faults; the retired ad-hoc hooks must not creep back in. (The volume's
# fail_member primitive stays in trail-volume — it is what the plane's
# sink drives — and no replay option shadows it.)
if grep -rn --include='*.rs' \
    'schedule_member_failure\|fail_member\|FailMember' \
    crates/bench crates/serve crates/trace src examples; then
  echo "found an ad-hoc fault hook outside the fault plane" >&2
  exit 1
fi

echo "== single-scenario entry point gate =="
# run_all --filter is the one way to run a registered scenario; no
# binary may wrap the registry again (perf_suite times scenarios through
# the library's perf module, not a bin-level run_scenario call).
if grep -rn --include='*.rs' 'run_scenario(' crates/bench/src/bin; then
  echo "found a per-scenario wrapper binary; use run_all --filter <name>" >&2
  exit 1
fi

# One scenario through run_all --filter, quick, into its own directory.
run_one() {
  cargo run --release --offline -p trail-bench --bin run_all -- \
    --quick --filter "$1" --out-dir "$2" >/dev/null
}

echo "== serve_fleet determinism gate (byte-identical across runs) =="
serve_a="$smoke_dir/serve_a"; serve_b="$smoke_dir/serve_b"
run_one serve_fleet "$serve_a"
run_one serve_fleet "$serve_b"
cmp -s "$serve_a/BENCH_serve.json" "$serve_b/BENCH_serve.json" \
  || { echo "BENCH_serve.json is not byte-identical across runs" >&2; exit 1; }
# The full smoke run above ran every scenario side by side on the
# threaded runner; the single-scenario run must match it byte for byte.
cmp -s "$serve_a/BENCH_serve.json" "$smoke_dir/BENCH_serve.json" \
  || { echo "BENCH_serve.json differs between the single-scenario and full runs" >&2; exit 1; }

echo "== raid_sweep gate (deterministic, degraded mode, per-member stats) =="
raid_a="$smoke_dir/raid_a"; raid_b="$smoke_dir/raid_b"
run_one raid_sweep "$raid_a"
run_one raid_sweep "$raid_b"
cmp -s "$raid_a/BENCH_raid.json" "$raid_b/BENCH_raid.json" \
  || { echo "BENCH_raid.json is not byte-identical across runs" >&2; exit 1; }
cmp -s "$raid_a/BENCH_raid.json" "$smoke_dir/BENCH_raid.json" \
  || { echo "BENCH_raid.json differs between the single-scenario and full runs" >&2; exit 1; }
# Degraded-mode rows and per-member latency breakdowns must be present.
for field in degraded_reads members small_write_speedup; do
  grep -q "\"$field\"" "$raid_a/BENCH_raid.json" \
    || { echo "BENCH_raid.json lacks $field" >&2; exit 1; }
done
# The headline claim: Trail-fronted RAID-5 must beat the standard stack
# by at least 2x on small-write mean latency at recorded load.
speedup="$(grep -o '"small_write_speedup":[0-9.]*' "$raid_a/BENCH_raid.json" \
  | cut -d: -f2)"
awk -v s="$speedup" 'BEGIN { exit !(s >= 2.0) }' \
  || { echo "RAID-5 small-write speedup $speedup is below 2x" >&2; exit 1; }

echo "== crash campaign gate (deterministic, zero violations, monotone curve) =="
camp_a="$smoke_dir/camp_a"; camp_b="$smoke_dir/camp_b"
run_one crash_campaign "$camp_a"
run_one crash_campaign "$camp_b"
cmp -s "$camp_a/BENCH_recovery.json" "$camp_b/BENCH_recovery.json" \
  || { echo "BENCH_recovery.json is not byte-identical across runs" >&2; exit 1; }
cmp -s "$camp_a/BENCH_recovery.json" "$smoke_dir/BENCH_recovery.json" \
  || { echo "BENCH_recovery.json differs between the single-scenario and full runs" >&2; exit 1; }
# Every sampled crash point must satisfy the durability contract (the
# scenario itself asserts monotonicity of the recovery-time curve).
grep -q '"violations":0,' "$camp_a/BENCH_recovery.json" \
  || { echo "crash campaign reported durability-contract violations" >&2; exit 1; }
for field in crash_points_total curve mean_total_ms mean_active_log_sectors; do
  grep -q "\"$field\"" "$camp_a/BENCH_recovery.json" \
    || { echo "BENCH_recovery.json lacks $field" >&2; exit 1; }
done
# The quick campaign still samples a real fleet of crash points.
points="$(grep -o '"crash_points_total":[0-9]*' "$camp_a/BENCH_recovery.json" \
  | cut -d: -f2)"
[ "$points" -ge 64 ] \
  || { echo "quick crash campaign sampled only $points crash points" >&2; exit 1; }

echo "== perf_suite --quick gate (fields present, event counts deterministic) =="
perf_a="$smoke_dir/perf_a"; perf_b="$smoke_dir/perf_b"
mkdir -p "$perf_a" "$perf_b"
cargo run --release --offline -p trail-bench --bin perf_suite -- \
  --quick --out-dir "$perf_a" >/dev/null
cargo run --release --offline -p trail-bench --bin perf_suite -- \
  --quick --out-dir "$perf_b" >/dev/null
for field in wall_ms events_per_sec events_executed; do
  grep -q "\"$field\"" "$perf_a/BENCH_simperf.json" \
    || { echo "BENCH_simperf.json lacks $field" >&2; exit 1; }
done
# events_executed is virtual-time: two runs must agree exactly, even
# though the wall-clock fields differ run to run.
counts_a="$(grep -o '"events_executed":[0-9]*' "$perf_a/BENCH_simperf.json")"
counts_b="$(grep -o '"events_executed":[0-9]*' "$perf_b/BENCH_simperf.json")"
[ -n "$counts_a" ] && [ "$counts_a" = "$counts_b" ] \
  || { echo "perf_suite event counts drifted between runs" >&2; exit 1; }

echo "== trace_tool smoke (generate -> replay, codec round-trip) =="
trace_tool() {
  cargo run --release --offline -p trail-bench --bin trace_tool -- "$@"
}
trace_tool generate --out "$smoke_dir/smoke.trace" --quick \
  --requests 120 --streams 2 --spatial zipf >/dev/null
trace_tool inspect "$smoke_dir/smoke.trace" >/dev/null
trace_tool replay "$smoke_dir/smoke.trace" --quick --target trail \
  --out-dir "$smoke_dir" >/dev/null
test -s "$smoke_dir/BENCH_replay_trail.json" \
  || { echo "trace_tool replay did not produce BENCH_replay_trail.json" >&2; exit 1; }
trace_tool convert "$smoke_dir/smoke.trace" "$smoke_dir/smoke.jsonl" >/dev/null
trace_tool convert "$smoke_dir/smoke.jsonl" "$smoke_dir/smoke2.trace" >/dev/null
cmp -s "$smoke_dir/smoke.trace" "$smoke_dir/smoke2.trace" \
  || { echo "trace codec binary->jsonl->binary round trip is not byte-identical" >&2; exit 1; }

echo "== streaming replay gate (10^6-record chunked trace, byte-identical) =="
# Generate a million-record chunked trace and stream it through the
# bounded-memory replay engine twice. The arrival rate is sustainable
# (20 ms mean IAT over 2 devices) so the open-loop queue stays bounded;
# everything in the artifact is virtual-time, so the two runs must agree
# byte for byte.
trace_tool generate --out "$smoke_dir/big.trace" \
  --requests 1000000 --devices 2 --streams 4 --mean-iat-us 20000 \
  --seed 42 >/dev/null
stream_a="$smoke_dir/stream_a"; stream_b="$smoke_dir/stream_b"
mkdir -p "$stream_a" "$stream_b"
cargo run --release --offline -p trail-bench --bin replay_stream -- \
  --trace "$smoke_dir/big.trace" --target trail_multi2 \
  --out-dir "$stream_a" >/dev/null
# Second run cross-checks the in-memory oracle: the whole trace decoded
# up front must produce the byte-identical report the streamed run did.
cargo run --release --offline -p trail-bench --bin replay_stream -- \
  --trace "$smoke_dir/big.trace" --target trail_multi2 --oracle \
  --out-dir "$stream_b" >/dev/null
cmp -s "$stream_a/BENCH_replaystream.json" "$stream_b/BENCH_replaystream.json" \
  || { echo "BENCH_replaystream.json is not byte-identical across runs" >&2; exit 1; }
grep -q '"requests":1000000' "$stream_a/BENCH_replaystream.json" \
  || { echo "streaming replay gate must cover 10^6 records" >&2; exit 1; }
for field in records_per_sec peak_resident_records latency_fingerprint; do
  grep -q "\"$field\"" "$stream_a/BENCH_replaystream.json" \
    || { echo "BENCH_replaystream.json lacks $field" >&2; exit 1; }
done

echo "== compressed + sharded replay gate (delta <= 60%, thread-count byte-identity) =="
# Delta-compress the million-record trace and require the promised
# ratio on the synthetic Poisson workload.
trace_tool convert "$smoke_dir/big.trace" "$smoke_dir/big_delta.trace" \
  --compress >/dev/null
raw_bytes=$(wc -c < "$smoke_dir/big.trace")
delta_bytes=$(wc -c < "$smoke_dir/big_delta.trace")
awk -v d="$delta_bytes" -v r="$raw_bytes" 'BEGIN { exit !(d * 10 <= r * 6) }' \
  || { echo "delta trace is $delta_bytes bytes, more than 60% of $raw_bytes raw" >&2; exit 1; }
# Round-tripping back to raw chunks must reproduce the original bytes.
trace_tool convert "$smoke_dir/big_delta.trace" "$smoke_dir/big_raw2.trace" \
  --raw >/dev/null
cmp -s "$smoke_dir/big.trace" "$smoke_dir/big_raw2.trace" \
  || { echo "delta->raw conversion does not reproduce the original trace" >&2; exit 1; }
# Sharded replay of the compressed trace at 1, 2, and 4 worker threads:
# the merged artifact depends on the shard count, never the thread
# count, so all three must be byte-identical.
for t in 1 2 4; do
  mkdir -p "$smoke_dir/shard_t$t"
  cargo run --release --offline -p trail-bench --bin replay_stream -- \
    --trace "$smoke_dir/big_delta.trace" --target trail_multi2 \
    --shards 4 --threads "$t" --out-dir "$smoke_dir/shard_t$t" >/dev/null
done
cmp -s "$smoke_dir/shard_t1/BENCH_replaystream.json" "$smoke_dir/shard_t2/BENCH_replaystream.json" \
  || { echo "sharded artifact differs between 1 and 2 threads" >&2; exit 1; }
cmp -s "$smoke_dir/shard_t1/BENCH_replaystream.json" "$smoke_dir/shard_t4/BENCH_replaystream.json" \
  || { echo "sharded artifact differs between 1 and 4 threads" >&2; exit 1; }
# The chunk encoding is storage, not semantics: a sharded replay of the
# raw trace must produce the same latency fingerprint.
mkdir -p "$smoke_dir/shard_raw"
cargo run --release --offline -p trail-bench --bin replay_stream -- \
  --trace "$smoke_dir/big.trace" --target trail_multi2 \
  --shards 4 --threads 2 --out-dir "$smoke_dir/shard_raw" >/dev/null
fp_delta=$(grep -o '"latency_fingerprint":"[0-9a-f]*"' "$smoke_dir/shard_t1/BENCH_replaystream.json")
fp_raw=$(grep -o '"latency_fingerprint":"[0-9a-f]*"' "$smoke_dir/shard_raw/BENCH_replaystream.json")
[ -n "$fp_delta" ] && [ "$fp_delta" = "$fp_raw" ] \
  || { echo "raw and delta sharded replays disagree on the fingerprint" >&2; exit 1; }

echo "== replay_giga gate (10^7-record slice: generate -> compress -> replay) =="
giga_dir="$smoke_dir/giga"
giga_out="$(cargo run --release --offline -p trail-bench --bin replay_giga -- \
  --records 10000000 --out-dir "$giga_dir")"
echo "$giga_out" | sed 's/^/   /'
grep -q '"requests":10000000' "$giga_dir/BENCH_replaystream.json" \
  || { echo "replay_giga slice must cover 10^7 records" >&2; exit 1; }
for field in compression_ratio trace_bytes_raw shards; do
  grep -q "\"$field\"" "$giga_dir/BENCH_replaystream.json" \
    || { echo "replay_giga artifact lacks $field" >&2; exit 1; }
done
# Memory gate: the medium holds one-byte-pattern sectors in its index,
# so the 10^7-record slice must peak at no more than 1024 MB (it took
# gigabytes when every written sector held a 512-byte image). Hosts
# without /proc/self/status print "unavailable" and skip the check.
rss=$(echo "$giga_out" | sed -n 's/^peak rss: \([0-9]*\) MB$/\1/p')
if [ -n "$rss" ]; then
  [ "$rss" -le 1024 ] \
    || { echo "replay_giga peak RSS ${rss} MB exceeds 1024 MB" >&2; exit 1; }
else
  grep -q '^peak rss: unavailable$' <<<"$giga_out" \
    || { echo "replay_giga printed no peak rss line" >&2; exit 1; }
fi
# The >= 2x sharded speedup criterion is a wall-clock property and only
# meaningful with real cores under the shards; assert it when this
# machine has at least 4, otherwise record the measurement and move on.
speedup=$(echo "$giga_out" | grep -o 'speedup: [0-9.]*' | grep -o '[0-9.]*')
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 4 ]; then
  awk -v s="$speedup" 'BEGIN { exit !(s >= 2.0) }' \
    || { echo "sharded replay speedup $speedup < 2.0x on $cores cores" >&2; exit 1; }
else
  echo "   (speedup ${speedup}x measured on $cores core(s); >=2x gate needs >=4 cores, skipped)"
fi

echo "== trace_tool blkparse import smoke (import -> inspect -> replay) =="
trace_tool import crates/trace/tests/data/sample.blkparse \
  --out "$smoke_dir/import.trace" >/dev/null
# Capture before grepping: `grep -q` exits at first match, and the
# resulting EPIPE would fail the gate under pipefail.
inspect_out="$(trace_tool inspect "$smoke_dir/import.trace")"
grep -q 'streams:  4' <<<"$inspect_out" \
  || { echo "imported fixture should carry 4 CPU streams" >&2; exit 1; }
trace_tool replay "$smoke_dir/import.trace" --quick --target trail_multi2 \
  --out-dir "$smoke_dir" >/dev/null
grep -q '"streams"' "$smoke_dir/BENCH_replay_trail_multi2.json" \
  || { echo "replay of imported trace lacks per-stream metrics" >&2; exit 1; }

echo "CI gate passed."
