#!/bin/sh
# CI gate: formatting, build, vet, race-enabled tests, and the
# observability doc-drift check. Equivalent to `make ci` for environments
# without make.
set -eux
cd "$(dirname "$0")/.."

# Formatting gate: gofmt must produce no diffs.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go build ./...
go vet ./...
go test -race ./...

# Footprint guards (ROADMAP aim 3, "nothing grows without bound"): live heap
# per committed instance under its budget, and on a durable service nothing
# but a tombstone per retired run left once a checkpoint covers the history.
# The race pass above skips them (the detector inflates allocations), so they
# run once here without -race, next to the allocations-per-committed-step
# bound (which the race pass does run).
go test -run '^(TestFootprintPerInstance|TestResidentHeapBoundedByHorizon)$' -count=1 -v ./internal/shard/
go test -run '^TestReplicaFootprint$' -count=1 -v ./internal/cluster/
go test -run '^TestStepAllocations$' -count=1 -v ./internal/engine/

# One copy of the cluster stream per node: the journal's frames (docs/
# CLUSTER.md). No non-test file in internal/cluster may declare a struct
# field holding decoded records, so a second, decoded copy cannot come back.
if grep -rnE --include='*.go' --exclude='*_test.go' '^[[:space:]]+[A-Za-z_][A-Za-z0-9_]*(,[[:space:]]*[A-Za-z_][A-Za-z0-9_]*)*[[:space:]]+\[\]\*?Record\b' internal/cluster/; then
    echo "record gate: a []Record field in internal/cluster (the journal is the stream's only copy)" >&2
    exit 1
fi

# A cluster run's registration carries its first window (docs/CLUSTER.md
# "Pipelined execution"): the fast path commits a whole run in the spec's
# stamp group, windows speculated from one replica position both commit,
# and a window cut short by a stale read or a quiesced key falls back to
# the owners with the same store.
go test -race -count=20 -run '^(TestRunCommitsAtAdmission|TestAdmissionWindowsFromOnePosition|TestAdmissionWindowFallsBack)$' ./internal/cluster/

# No-map-per-entry gate: a committed instance's reads and writes live in
# sorted slices (wlog.Entry). Outside tests the map shape may appear only in
# the helper that converts it.
if grep -rn --include='*.go' --exclude='*_test.go' -e 'map\[data\.Key\]wlog\.ReadObs' -e 'map\[data\.Key\]ReadObs' . |
    grep -v 'func ReadsOf('; then
    echo "map gate: a read-observation map outside wlog.ReadsOf (see wlog.Entry)" >&2
    exit 1
fi

# Publish-after-durability gate (docs/DURABILITY.md): the commit pipeline
# never waits on a disk — durability waits belong to whoever hands a result
# to a client — so the committer names neither a sync nor the WAL package.
if grep -n -e 'Sync' -e 'durable\.' internal/shard/committer.go; then
    echo "committer gate: internal/shard/committer.go must not wait on the WAL" >&2
    exit 1
fi
# The contracts that replace the wait: done => durable, 201 => spec
# durable, a snapshot covers only the durable prefix, a failed WAL fails
# runs. Each copies the WAL directory at the instant a client could look.
go test -race -count=20 -run '^(TestDoneImpliesDurable|TestSubmitAckImpliesSpecDurable|TestCheckpointCoversOnlyDurablePrefix|TestClosedWALFailsUndurableRuns)$' ./internal/shard/

# Restart equals live (docs/DURABILITY.md): after every checkpoint of seeded
# episodes the running service holds exactly the log, graph, store, runs and
# pre-epoch set a restart from a copy of its directory rebuilds, and both
# answer alerts alike — below the horizon with a typed refusal.
go test -race -count=3 -run '^(TestRestartEqualsLive|TestAlertBelowHorizon)$' ./internal/shard/

# The Strict-mode lost-init defect showed up in ~1 % of these episodes (a
# full repair queued ahead of a submission's init seeding); 200 runs keep
# the fix fixed.
go test -run 'TestEpisodeHealthyVariantsPass' -count=200 ./internal/fuzz/

# The end-to-end benchmark is its own module (bench/, `replace selfheal =>
# ../`) compiled against internal packages: vet and its toy-size tests here
# so internal-API drift against it fails CI, not the next benchmark run.
(cd bench && go vet ./... && go test ./...)

# Benchmark smoke: the parallel-repair, mid-recovery and alert-storm
# benchmarks must run to completion (one iteration each; EXPERIMENTS.md
# records real numbers).
go test -run '^$' -bench '^Benchmark(Repair|AlertStorm)' -benchtime=1x .

# Durability benchmark smoke: WAL append (group-commit) and restore
# (snapshot-bounded replay) must run; BENCH_durability.json records real
# numbers.
go test -run '^$' -bench '^Benchmark(Append|Replay)$' -benchtime=1x ./internal/durable/

# Cluster commit-path benchmark smoke: group-stamped batch submission and
# the binary replication codec must run; BENCH_cluster.json records real
# numbers.
go test -run '^$' -bench '^Benchmark(ClusterCommit|ReplicationCodec)' -benchtime=1x ./internal/cluster/

# Godoc gate: every internal package and every command must carry a package
# doc comment ("// Package <name> ..." / "// Command <name> ...") so the
# architecture stays self-describing (docs/ARCHITECTURE.md maps the same
# packages).
for d in internal/*/ cmd/*/; do
    if ! grep -q '^// Package \|^// Command ' "$d"*.go 2>/dev/null; then
        echo "godoc gate: $d has no package doc comment" >&2
        exit 1
    fi
done

# Doc-drift gate: every metric name declared in the obs catalog must be
# documented in docs/OBSERVABILITY.md (TestCatalogDocumented enforces the
# same pairing from Go; this catches it even when tests are skipped).
names=$(sed -n 's/^\tM[A-Za-z]* *= "\([a-z_]*\)"$/\1/p' internal/obs/catalog.go)
count=$(echo "$names" | grep -c .)
if [ "$count" -lt 30 ]; then
    echo "doc-drift gate: extracted only $count metric names from internal/obs/catalog.go; extraction broken?" >&2
    exit 1
fi
for name in $names; do
    if ! grep -q "\`$name\`" docs/OBSERVABILITY.md; then
        echo "doc-drift gate: metric $name is not documented in docs/OBSERVABILITY.md" >&2
        exit 1
    fi
done

# API smoke test: boot selfheal-server on an ephemeral port, then drive the
# versioned workflow API through the wire — submit a run, inject an alert,
# assert recovery via /api/v1/state (scripts/apismoke).
tmpdir=$(mktemp -d)
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/selfheal-server" ./cmd/selfheal-server
go build -o "$tmpdir/apismoke" ./scripts/apismoke
go build -o "$tmpdir/openapidrift" ./scripts/openapidrift
go build -o "$tmpdir/clustersmoke" ./scripts/clustersmoke
"$tmpdir/selfheal-server" -addr 127.0.0.1:0 -shards 4 > "$tmpdir/server.out" 2>&1 &
server_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^selfheal-server listening on //p' "$tmpdir/server.out" | head -1)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "selfheal-server never reported its address:" >&2
    cat "$tmpdir/server.out" >&2
    exit 1
fi
"$tmpdir/apismoke" "http://$addr"
# OpenAPI drift gate: the served /api/v1/openapi.json must match the route
# table in both directions (scripts/openapidrift).
"$tmpdir/openapidrift" "http://$addr"
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true

# Crash-restart smoke (docs/DURABILITY.md): boot with -durable, load
# workflows, SIGKILL the process mid-life, restart on the same WAL
# directory, and require the restored store to be byte-identical.
go build -o "$tmpdir/crashsmoke" ./scripts/crashsmoke
"$tmpdir/selfheal-server" -addr 127.0.0.1:0 -shards 2 -durable "$tmpdir/wal" > "$tmpdir/server2.out" 2>&1 &
server_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^selfheal-server listening on //p' "$tmpdir/server2.out" | head -1)
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "durable selfheal-server never came up" >&2; cat "$tmpdir/server2.out" >&2; exit 1; }
"$tmpdir/crashsmoke" seed "http://$addr" > "$tmpdir/store-before.json"
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
"$tmpdir/selfheal-server" -addr 127.0.0.1:0 -shards 2 -durable "$tmpdir/wal" > "$tmpdir/server3.out" 2>&1 &
server_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^selfheal-server listening on //p' "$tmpdir/server3.out" | head -1)
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "restarted selfheal-server never came up" >&2; cat "$tmpdir/server3.out" >&2; exit 1; }
"$tmpdir/crashsmoke" dump "http://$addr" > "$tmpdir/store-after.json"
cmp "$tmpdir/store-before.json" "$tmpdir/store-after.json" || {
    echo "crash-restart smoke: restored store differs from pre-kill store" >&2
    exit 1
}
kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
echo "CRASH SMOKE OK"

# Cluster smoke (docs/CLUSTER.md): a 3-node cluster of real processes —
# cross-node run, forged attack, SIGKILL a follower mid-repair, rejoin it
# with -join, a batched commit storm with a SIGKILL mid-batch, and a
# windowed chain run, each ending with byte-identical stores on every node
# (scripts/clustersmoke orchestrates the processes itself).
"$tmpdir/clustersmoke" "$tmpdir/selfheal-server"

# Fuzz smoke (docs/FUZZING.md): a fixed-seed campaign against the healthy
# service must report zero oracle violations, and the mutation smoke must
# prove the fuzzer's teeth — with the skip-repair fault injected, the
# campaign must find a violation and shrink it to a reproducer.
go build -o "$tmpdir/selfheal-fuzz" ./cmd/selfheal-fuzz
"$tmpdir/selfheal-fuzz" -episodes 40 -seed 1
"$tmpdir/selfheal-fuzz" -durable -episodes 8 -seed 1
"$tmpdir/selfheal-fuzz" -fault-skip-repair -expect-fail -episodes 1 -seed 1 -corpus "$tmpdir/corpus"
[ -f "$tmpdir/corpus/seed-1.json" ] || {
    echo "fuzz smoke: mutation campaign wrote no corpus entry" >&2
    exit 1
}
echo "FUZZ SMOKE OK"

# Nightly campaign (opt-in): a longer randomized sweep across the durable,
# strict and triage configurations.
if [ "${CI_NIGHTLY:-0}" = "1" ]; then
    "$tmpdir/selfheal-fuzz" -duration 120s -seed "$(date +%s)"
    "$tmpdir/selfheal-fuzz" -durable -episodes 200 -seed "$(date +%s)"
    "$tmpdir/selfheal-fuzz" -durable -strict -episodes 60 -seed 7
    "$tmpdir/selfheal-fuzz" -durable -triage -episodes 60 -seed 11
    echo "NIGHTLY FUZZ OK"
fi
