#!/bin/sh
# serve_smoke.sh boots lcrbd on a random port and drives the serving
# contract end to end:
#
#   1. /healthz and /readyz answer 200 once the daemon is up,
#   2. the first auto solve finds the sketch store cold and answers 200
#      with degraded=true and a reason naming the sketch,
#   3. a normal greedy solve answers 200 with degraded=false,
#   4. an over-deadline solve answers 200 with degraded=true (an honest
#      cheaper answer, not an error),
#   5. SIGTERM drains: the process logs a clean drain and exits 0.
#
# Run via `make serve-smoke`. Requires only a POSIX shell and one of
# curl/wget.
set -eu

workdir="$(mktemp -d)"
daemon_pid=""
cleanup() {
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill -KILL "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    echo "--- daemon stderr ---" >&2
    cat "$workdir/stderr" >&2 || true
    exit 1
}

# fetch URL [body] -> prints "<status> <response-body>"
fetch() {
    url="$1"; body="${2:-}"
    if command -v curl >/dev/null 2>&1; then
        if [ -n "$body" ]; then
            curl -s -m 60 -o "$workdir/resp" -w '%{http_code}' -XPOST "$url" -d "$body"
        else
            curl -s -m 60 -o "$workdir/resp" -w '%{http_code}' "$url"
        fi
    else
        # wget prints the status line to stderr; --content-on-error keeps
        # non-2xx bodies.
        if [ -n "$body" ]; then
            wget -q -T 60 -O "$workdir/resp" --content-on-error --post-data "$body" "$url" \
                && echo 200 || echo 000
        else
            wget -q -T 60 -O "$workdir/resp" --content-on-error "$url" && echo 200 || echo 000
        fi
    fi
}

echo "serve-smoke: building lcrbd"
${GO:-go} build -o "$workdir/lcrbd" ./cmd/lcrbd

echo "serve-smoke: booting on a random port"
"$workdir/lcrbd" -addr 127.0.0.1:0 -port-file "$workdir/port" -scale 0.03 \
    -deadline 30s -drain 20s \
    >"$workdir/stdout" 2>"$workdir/stderr" &
daemon_pid=$!

i=0
while [ ! -s "$workdir/port" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "port file never appeared"
    kill -0 "$daemon_pid" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.1
done
port="$(cat "$workdir/port")"
base="http://127.0.0.1:$port"
echo "serve-smoke: up on port $port"

status="$(fetch "$base/healthz")"
[ "$status" = 200 ] || fail "healthz status $status"
status="$(fetch "$base/readyz")"
[ "$status" = 200 ] || fail "readyz status $status"

echo "serve-smoke: cold auto solve degrades to the SCBG cover"
status="$(fetch "$base/v1/solve" '{"algorithm":"auto"}')"
[ "$status" = 200 ] || fail "cold auto status $status: $(cat "$workdir/resp")"
grep -q '"degraded":true' "$workdir/resp" || fail "cold auto not degraded: $(cat "$workdir/resp")"
grep -q '"degradedReason":"sketch' "$workdir/resp" || fail "cold auto reason does not name the sketch: $(cat "$workdir/resp")"

echo "serve-smoke: normal solve"
status="$(fetch "$base/v1/solve" '{"algorithm":"greedy","samples":5}')"
[ "$status" = 200 ] || fail "solve status $status: $(cat "$workdir/resp")"
grep -q '"degraded":false' "$workdir/resp" || fail "normal solve degraded: $(cat "$workdir/resp")"
grep -q '"protectors":\[' "$workdir/resp" || fail "normal solve has no protectors: $(cat "$workdir/resp")"

echo "serve-smoke: over-deadline solve must degrade, not error"
status="$(fetch "$base/v1/solve" '{"algorithm":"greedy","samples":5,"timeoutMillis":1}')"
[ "$status" = 200 ] || fail "over-deadline solve status $status: $(cat "$workdir/resp")"
grep -q '"degraded":true' "$workdir/resp" || fail "over-deadline solve not degraded: $(cat "$workdir/resp")"
grep -q '"degradedReason"' "$workdir/resp" || fail "degraded solve has no reason: $(cat "$workdir/resp")"

echo "serve-smoke: SIGTERM drain"
kill -TERM "$daemon_pid"
i=0
while kill -0 "$daemon_pid" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 300 ] && fail "daemon did not exit within 30s of SIGTERM"
    sleep 0.1
done
rc=0
wait "$daemon_pid" || rc=$?
[ "$rc" = 0 ] || fail "daemon exited $rc after SIGTERM, want 0"
grep -q "drained cleanly" "$workdir/stderr" || fail "missing clean-drain log"
daemon_pid=""

echo "serve-smoke: PASS"
