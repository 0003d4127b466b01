#!/bin/sh
# Campaign-service smoke: start the daemon on an auto-assigned port,
# submit a 2-shard job, stream its live SSE events and replay-validate
# them, re-submit the identical job and assert it is served from the
# content-addressed store (done immediately, byte-identical artifacts),
# do the same for a hybrid job whose manifest has integral-looking
# float sums, then fetch the served dashboard and cross-run history pages.
#
# Uses the already-built CLI binary directly (no dune locking while the
# daemon runs).  Override CLI / ROOT from the environment if needed.
set -e

CLI=${CLI:-./_build/default/bin/ferrum_cli.exe}
ROOT=${ROOT:-/tmp/ferrum_serve_smoke}

[ -x "$CLI" ] || { echo "serve-smoke: $CLI not built"; exit 1; }

rm -rf "$ROOT"
"$CLI" serve --root "$ROOT" --port 0 2>"$ROOT.log" &
DAEMON=$!
cleanup() {
  [ -f "$ROOT/pid" ] && kill "$(cat "$ROOT/pid")" 2>/dev/null
  kill "$DAEMON" 2>/dev/null
  true
}
trap cleanup EXIT

# Wait for the daemon to record its auto-assigned port.
i=0
while [ ! -f "$ROOT/port" ] && [ $i -lt 100 ]; do i=$((i+1)); sleep 0.1; done
[ -f "$ROOT/port" ] || { echo "serve-smoke: daemon never bound"; cat "$ROOT.log"; exit 1; }
PORT=$(cat "$ROOT/port")

# Fresh submission: accepted and queued, not cached.
"$CLI" submit kmeans -p ferrum --samples 24 --shards 2 --port "$PORT" > "$ROOT.submit1"
grep -q '"cached":0' "$ROOT.submit1"

# Live SSE stream: the reassembled records must replay-validate as a
# ferrum.events.v1 log (`ferrum metrics` runs Events.replay on it).
timeout 300 "$CLI" watch 1 --port "$PORT" > "$ROOT.watch"
{ echo '{"schema":"ferrum.events.v1","version":1}'; cat "$ROOT.watch"; } > "$ROOT.events"
"$CLI" metrics "$ROOT.events" > /dev/null

DIGEST=$(sed -n 's/.*"digest":"\([0-9a-f]\{32\}\)".*/\1/p' "$ROOT.submit1" | head -1)

# Stored artifacts validate against their schemas.
"$CLI" fetch "/runs/$DIGEST/records" --port "$PORT" -o "$ROOT.rec1"
"$CLI" metrics "$ROOT.rec1" > /dev/null
"$CLI" fetch "/runs/$DIGEST/vulnmap" --port "$PORT" -o "$ROOT.vmap"
"$CLI" metrics "$ROOT.vmap" > /dev/null

# Identical re-submission: a cache hit, answered done immediately.
"$CLI" submit kmeans -p ferrum --samples 24 --shards 2 --port "$PORT" > "$ROOT.submit2"
grep -q '"cached":1' "$ROOT.submit2"
grep -q '"state":"done"' "$ROOT.submit2"
grep -q "\"digest\":\"$DIGEST\"" "$ROOT.submit2"

# The cache hit serves the stored bytes unchanged.
"$CLI" fetch "/runs/$DIGEST/records" --port "$PORT" -o "$ROOT.rec2"
cmp "$ROOT.rec1" "$ROOT.rec2"

# kNN under hybrid has golden profile sums that print as integers; its
# manifest must still round-trip through the store, so a resubmission
# is a cache hit under the digest the job was first submitted under.
"$CLI" submit kNN -p hybrid --samples 8 --shards 1 --port "$PORT" > "$ROOT.hybrid1"
grep -q '"cached":0' "$ROOT.hybrid1"
HID=$(sed -n 's/.*"id":\([0-9]*\).*/\1/p' "$ROOT.hybrid1" | head -1)
HDIGEST=$(sed -n 's/.*"digest":"\([0-9a-f]\{32\}\)".*/\1/p' "$ROOT.hybrid1" | head -1)
timeout 300 "$CLI" watch "$HID" --port "$PORT" > /dev/null
"$CLI" submit kNN -p hybrid --samples 8 --shards 1 --port "$PORT" > "$ROOT.hybrid2"
grep -q '"cached":1' "$ROOT.hybrid2"
grep -q "\"digest\":\"$HDIGEST\"" "$ROOT.hybrid2"

# Queue state and the run index are schema-valid JSONL too.
"$CLI" fetch /runs --port "$PORT" -o "$ROOT.runs"
"$CLI" metrics "$ROOT.runs" > /dev/null
"$CLI" fetch /metricz --port "$PORT" -o "$ROOT.jobs"
"$CLI" metrics "$ROOT.jobs" > /dev/null

# Served pages: the per-run dashboard and the cross-run history.
"$CLI" fetch "/runs/$DIGEST/dashboard" --port "$PORT" -o "$ROOT.dashboard.html"
grep -q "<html" "$ROOT.dashboard.html"
"$CLI" fetch /history --port "$PORT" -o "$ROOT.history.html"
SHORT=$(echo "$DIGEST" | cut -c1-12)
grep -q "$SHORT" "$ROOT.history.html"

echo "serve-smoke: daemon, live SSE replay, cache hits and served artifacts OK"
