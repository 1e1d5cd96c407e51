#!/usr/bin/env bash
# Worker-kill smoke for the distributed campaign service (DESIGN.md,
# "Campaign service"): run one campaign solo, then sharded across two
# worker processes with one worker SIGKILLed mid-flight, and require the
# merged report to be byte-identical to the solo one. Also requires the
# kill to have actually cost a lease (campaignd_lease_expiries > 0), so a
# too-fast campaign fails the smoke instead of silently not testing it.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH=${BENCH:-g721dec}
MODE=${MODE:-dup}
TRIALS=${TRIALS:-4000}
ADDR=127.0.0.1:7177

DIR=$(mktemp -d)
trap 'kill $(jobs -p) >/dev/null 2>&1 || true; rm -rf "$DIR"' EXIT

go build -o "$DIR/softft" ./cmd/softft

"$DIR/softft" -bench "$BENCH" -mode "$MODE" -inject "$TRIALS" >"$DIR/ref.out"

"$DIR/softft" serve -addr "$ADDR" -dir "$DIR/journals" -lease-ttl 2s -backoff 100ms 2>"$DIR/serve.log" &
sleep 0.5
# -workers 1 keeps shard campaigns slow enough that the kill lands mid-run.
"$DIR/softft" work -coordinator "http://$ADDR" -id w1 -workers 1 2>"$DIR/w1.log" &
"$DIR/softft" work -coordinator "http://$ADDR" -id w2 -workers 1 2>"$DIR/w2.log" &
W2=$!

"$DIR/softft" submit -coordinator "http://$ADDR" -bench "$BENCH" -mode "$MODE" \
  -inject "$TRIALS" -shards 4 -wait >"$DIR/svc.out" 2>"$DIR/submit.log" &
SUB=$!

# SIGKILL w2 once the kill is sure to cost a lease: the job is running, it
# has streamed trials, and w2 holds a leased shard. Killing on streamed
# trials alone could land while w2 sat between leases, and then nothing
# would expire.
done_ct=0
for _ in $(seq 1 400); do
  progress=$(curl -s "http://$ADDR/progress" || true)
  done_ct=$(printf '%s' "$progress" | grep -o '"done":[0-9]*' | cut -d: -f2 | sort -n | tail -1)
  state=$(printf '%s' "$progress" | grep -o '"state":"[a-z]*"' | head -1 | cut -d'"' -f4)
  if [ "${done_ct:-0}" -gt 0 ] && [ "${state:-}" = running ] &&
    printf '%s' "$progress" | grep -q '"state":"leased","attempt":[0-9]*,"worker":"w2"'; then
    break
  fi
  sleep 0.05
done
kill -9 "$W2"
echo "SIGKILLed w2 holding a lease, with ${done_ct:-0} trials streamed"

wait "$SUB"

diff "$DIR/ref.out" "$DIR/svc.out"
echo "merged report byte-identical to solo run"

curl -s "http://$ADDR/metrics" >"$DIR/metrics.txt"
grep -E 'lease_expiries|retries|jobs_done' "$DIR/metrics.txt"
grep -Eq 'campaignd_lease_expiries [1-9]' "$DIR/metrics.txt" ||
  { echo "worker kill landed too late: no lease expired (raise TRIALS)"; exit 1; }
echo "worker-kill smoke OK"
