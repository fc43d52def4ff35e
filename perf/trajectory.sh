#!/usr/bin/env bash
# Prints one row of perf/trajectory.tsv for the checked-out tree: its
# git SHA (suffixed `+` when tracked files differ from that commit),
# `perf_suite --quick` events/sec per scenario, and `replay_giga
# --records 1000000` single-engine and sharded records/s plus peak RSS.
# Append it with
#
#   perf/trajectory.sh >> perf/trajectory.tsv
#
# The figures are wall-clock and host-dependent: they are recorded to
# show the trend across commits, never compared against a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
run() {
  cargo run --release --offline -q -p trail-bench --bin "$@"
}

perf="$(run perf_suite -- --quick --out-dir "$tmp" 2>/dev/null)"
giga="$(run replay_giga -- --records 1000000 --out-dir "$tmp" 2>/dev/null)"

# perf_suite prints `| scenario | events | wall (ms) | events/sec |`.
eps() {
  awk -F' *[|] *' -v s="$1" '$2 == s { print $5 }' <<<"$perf"
}
rps() {
  sed -n "s/^$1.* \([0-9]*\) records\/s wall.*/\1/p" <<<"$giga"
}
rss="$(sed -n 's/^peak rss: \([0-9]*\) MB$/\1/p' <<<"$giga")"
sha="$(git rev-parse --short=12 HEAD)"
git diff --quiet HEAD -- || sha="$sha+"

printf '%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n' \
  "$sha" \
  "$(eps micro)" "$(eps fig3)" "$(eps tpcc)" \
  "$(eps overload_replay_8x)" "$(eps timeout_replay)" \
  "$(rps single)" "$(rps sharded)" "${rss:-unavailable}"
