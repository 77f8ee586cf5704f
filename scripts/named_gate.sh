#!/bin/sh
# named_gate.sh PATTERN PKG... runs the tests matching PATTERN in each
# package under the race detector, uncached. A `go test -run` pattern that
# matches nothing passes with "[no tests to run]", so the script first
# lists the matches per package and fails if any package has none: a
# renamed or deleted test cannot silently empty a named gate.
set -eu
pattern=$1
shift
for pkg in "$@"; do
	n=$(go test -list "$pattern" "$pkg" | grep -cE '^(Test|Example|Fuzz|Benchmark)') || true
	if [ "$n" -eq 0 ]; then
		echo "named_gate: no test in $pkg matches '$pattern'" >&2
		exit 1
	fi
	echo "named_gate: $pkg: $n tests match '$pattern'"
done
go test -race -count=1 -run "$pattern" "$@"
