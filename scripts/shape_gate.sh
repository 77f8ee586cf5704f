#!/bin/sh
# shape_gate.sh regenerates the paper's whole evaluation at paper scale
# (lcrbbench -exp all -scale 1) and fails unless every job's qualitative
# comparison matches the paper. Each job prints one "# <name> — ..."
# header and one "shape:" line; the gate counts the headers and requires
# exactly as many "shape: OK" lines, so a deviating job or one that
# printed no shape report fails it. About 15-20 s on 2 vCPU.
set -eu
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go run ./cmd/lcrbbench -exp all -scale 1 -workers -1 -quiet >"$out"
jobs=$(grep -c '^# ' "$out") || true
ok=$(grep -c '^shape: OK' "$out") || true
checks=$(sed -n 's/^shape: OK (\([0-9]*\) checks.*/\1/p' "$out" | awk '{s += $1} END {print s + 0}')
if [ "$jobs" -eq 0 ] || [ "$ok" -ne "$jobs" ]; then
	grep -E '^# |^shape|^  - ' "$out" >&2
	echo "shape_gate: FAIL: $ok of $jobs jobs match the paper" >&2
	exit 1
fi
echo "shape_gate: $ok of $jobs jobs match the paper ($checks checks)"
