#!/usr/bin/env bash
# Run the tracked hot-path benchmarks and write one benchstat-compatible
# snapshot to the given file (default: stdout). The committed
# perf/BASELINE.txt and perf/AFTER.txt pairs are produced by this script,
# and the CI regression gate runs the same set on PR head and merge-base.
#
# Usage: perfsnapshot.sh [outfile] [count]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-/dev/stdout}"
count="${2:-5}"

{
  # Macro scenarios: one full seeded simulation per iteration.
  go test -run '^$' -bench '^BenchmarkScenario$' -benchtime 1x -count "$count" \
    ./internal/perfbench
  # Micro hot paths: routing, leaf-set probe handling, member
  # enumeration, the maintenance tick, wire-size accounting, message
  # decoding, event scheduling, datagram delivery, metric observation,
  # digit arithmetic.
  go test -run '^$' \
    -bench '^(BenchmarkNodeNextHop|BenchmarkNodeReceiveLookupEnvelope|BenchmarkNodeHandleLSProbe|BenchmarkNodeHandleLSProbeNeedNear|BenchmarkNodeHandleLSProbeReply|BenchmarkLeafSetMembers|BenchmarkNodeTick|BenchmarkMessageWireSize|BenchmarkCodecDecodeLookupEnvelope)$' \
    -benchtime 100000x -count "$count" ./internal/pastry
  # Live receive path: one batch frame of eight messages split and decoded.
  go test -run '^$' -bench '^BenchmarkDecodeAllBatch8$' \
    -benchtime 100000x -count "$count" ./internal/wire
  # Event core: one handle-free schedule plus one executed event, and one
  # datagram's trip through the network model.
  go test -run '^$' -bench '^BenchmarkSimulatorPostStep$' \
    -benchtime 1000000x -count "$count" ./internal/eventsim
  go test -run '^$' -bench '^BenchmarkDatagramDelivery$' \
    -benchtime 1000000x -count "$count" ./internal/netmodel
  go test -run '^$' -bench '^BenchmarkHistogramObserve' \
    -benchtime 1000000x -count "$count" ./internal/telemetry
  go test -run '^$' -bench '^(BenchmarkDigit|BenchmarkCommonPrefixLen)$' \
    -benchtime 1000000x -count "$count" ./internal/id
} > "$out"

echo "perfsnapshot: wrote $out" >&2
