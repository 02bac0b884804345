#!/usr/bin/env bash
# Multi-process end-to-end smoke for the remote execution backend: train the
# same pipeline twice — once in-process, once on a coordinator with two
# separate worker processes joined over HTTP — and require the persisted
# vote and label artifacts to be byte-identical. This is the acceptance bar
# the in-process fault suites cannot cover: real process boundaries, real
# sockets, real SIGTERM drains.
set -euo pipefail

cd "$(dirname "$0")/.."

TASK=${TASK:-topic}
DOCS=${DOCS:-800}
STEPS=${STEPS:-60}
SEED=${SEED:-5}
PORT=${PORT:-$((20000 + $$ % 20000))}
MODEL="$TASK-classifier"

work=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "== building drybelld"
go build -o "$work/drybelld" ./cmd/drybelld

echo "== in-process baseline"
"$work/drybelld" -mode train -root "$work/local" \
    -task "$TASK" -docs "$DOCS" -steps "$STEPS" -seed "$SEED"

echo "== coordinator (:$PORT) + 2 worker processes"
"$work/drybelld" -mode train -root "$work/remote" -addr "127.0.0.1:$PORT" -min-workers 2 \
    -task "$TASK" -docs "$DOCS" -steps "$STEPS" -seed "$SEED" &
coord=$!
pids+=("$coord")

for i in 1 2; do
    "$work/drybelld" -mode worker -coordinator "http://127.0.0.1:$PORT" \
        -task "$TASK" -seed "$SEED" &
    pids+=("$!")
done

if ! wait "$coord"; then
    echo "coordinator run failed" >&2
    exit 1
fi

# Coordinator is done; SIGTERM must drain each worker to a clean exit 0.
for pid in "${pids[@]:1}"; do
    kill -TERM "$pid" 2>/dev/null || true
done
for pid in "${pids[@]:1}"; do
    if ! wait "$pid"; then
        echo "worker $pid did not drain cleanly on SIGTERM" >&2
        exit 1
    fi
done
pids=()

echo "== comparing artifacts"
fail=0
# compare checks every file under the glob, recursively (the vote store keeps
# its segments under votes/_gen/), on both sides: each must exist on the
# other side and be byte-identical there.
compare() {
    local what=$1 glob=$2
    local matched=0 side other rel
    for side in local remote; do
        other=remote
        [ "$side" = remote ] && other=local
        while IFS= read -r -d '' a; do
            matched=1
            rel=${a#"$work/$side/"}
            if [ ! -f "$work/$other/$rel" ]; then
                echo "MISSING: $what file $rel exists only in the $side run" >&2
                fail=1
            elif [ "$side" = local ] && ! cmp -s "$a" "$work/$other/$rel"; then
                echo "MISMATCH: $what file $rel differs" >&2
                fail=1
            fi
        done < <(find "$work"/$side/$glob -type f -print0 2>/dev/null)
    done
    if [ "$matched" = 0 ]; then
        echo "MISSING: no $what artifacts under $glob" >&2
        fail=1
    fi
}
compare "votes"  "bootstrap/$MODEL/labels/votes*"
compare "labels" "bootstrap/$MODEL/output/problabels*"
[ "$fail" = 0 ] || exit 1

echo "OK: remote labels byte-identical to in-process run"
