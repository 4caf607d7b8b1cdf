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
go test -run '^(TestFootprintPerInstance|TestResidentHeapBoundedByHorizon|TestMemoryHeapBoundedByHorizon)$' -count=1 -v ./internal/shard/
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
# and a window cut short by a stale read or a paused key falls back to
# the owners with the same store.
go test -race -count=20 -run '^(TestRunCommitsAtAdmission|TestAdmissionWindowsFromOnePosition|TestAdmissionWindowFallsBack)$' ./internal/cluster/

# Cluster nodes checkpoint and forget (docs/CLUSTER.md "Checkpoints"): a
# checkpoint record makes every replica store a byte-identical snapshot and
# forget what it covers; a rebooted follower equals a live peer; -join
# below the peers' horizon starts from a snapshot; an alert beneath the
# horizon is refused alike everywhere, and a repair beneath it by the
# stamper, which stamps nothing and counts the refusal once (a legacy
# repair record is refused alike by every replica that applies it).
go test -race -count=10 -run '^(TestSnapshotsByteIdentical|TestClusterRestartEqualsLive|TestJoinBelowHorizon|TestClusterAlertBelowHorizon|TestReplicaRefusesRepairBelowHorizon|TestStamperRefusesRepairBelowHorizon|TestMemFramesCheckpointRetiresPrevious)$' ./internal/cluster/
if grep -rn --include='*.go' --exclude='*_test.go' 'do not checkpoint' internal/cluster/; then
    echo "checkpoint gate: internal/cluster refuses checkpoints again (Node.Checkpoint must stamp a checkpoint record)" >&2
    exit 1
fi
# The checkpoint record is a new kind byte: the journal and wire bytes of
# the earlier records are unchanged, so a journal written before it opens.
go test -count=1 -run '^TestJournalFromParentCommit$' ./internal/cluster/

# No-map-per-entry gate: a committed instance's reads and writes live in
# sorted slices (wlog.Entry). Outside tests the map shape may appear only in
# the helper that converts it.
if grep -rn --include='*.go' --exclude='*_test.go' -e 'map\[data\.Key\]wlog\.ReadObs' -e 'map\[data\.Key\]ReadObs' . |
    grep -v 'func ReadsOf('; then
    echo "map gate: a read-observation map outside wlog.ReadsOf (see wlog.Entry)" >&2
    exit 1
fi

# One copy per service of every spec fact (docs/ARCHITECTURE.md "Spec
# interning"): runs of one tenant share their lists, strings and footprint,
# no repair, resync or restore writes into a shared list, a checkpoint's
# table keeps only what live specs reference, and a cluster replica's
# active runs equal a scan of its run frontiers after forges and repairs.
go test -race -count=20 -run '^(TestBuildInSharesSpecFacts|TestSealedFootprintMatchesScan|TestRetainForgets|TestCheckCatchesInPlaceMutation)$' ./internal/wfjson/
go test -race -count=20 -run '^(TestRunsOfOneTenantShareSpecFacts|TestInternedListsSurviveRepairs)$' ./internal/shard/
go test -race -count=20 -run '^(TestActiveRunsMatchFullScan|TestClusterFuzzEquivalence)$' ./internal/cluster/

# A compiled spec is data (docs/ARCHITECTURE.md "The compiled spec"): one
# task array sorted by ID, and the body of every wire task as fields of the
# task, which the one evaluator (wf.Task.Eval) runs exactly as SumCompute and
# ThresholdChoose would; a compiled bench-shaped spec stays under its heap
# bound, and a committed step under its allocation bound. A task is found by
# its index without copying one (Spec.Task allocates nothing), Validate
# allocates nothing on a small valid spec, the index walk agrees with the
# map-based analyses it replaced, and the generator's output for fixed seeds
# (the benchmark's inputs) does not move. Neither the wire compiler nor
# blueprints may build closures again, and neither the task map nor the
# copying binary search may come back.
go test -race -count=5 -run '^(TestCompiledBodyMatchesClosures|TestBytesPerCompiledSpec)$' ./internal/wfjson/
go test -race -count=5 -run '^TestStepAllocations$' ./internal/engine/
go test -count=5 -run '^(TestValidateAllocations|TestTaskLookupAllocations|TestGenerateBlueprintStable)$' ./internal/wf/
go test -race -count=1 -run '^TestGraphAnalysesMatchOracle$' ./internal/wf/
if grep -nE --include='*.go' --exclude='*_test.go' -r -e 'SumCompute\(' -e 'ThresholdChoose\(' internal/wfjson/ internal/wf/blueprint.go ||
    grep -nE -e 'map\[TaskID\]\*Task' -e 'BinarySearchFunc\(s\.Tasks' internal/wf/spec.go; then
    echo "spec gate: a closure body in the wire compiler or blueprints, a task map in wf.Spec, or a lookup that copies tasks (a compiled spec is one task array of data, searched by index)" >&2
    exit 1
fi

# One incident leader (docs/CLUSTER.md "One incident leader, partial
# quiescence"): every alert is admitted on the stamper, which pauses the
# damaged keys at its admission gate, repairs and releases, one incident at
# a time — two incidents pausing one key hold it until the later releases;
# a clean run completes mid-incident; an alert through a follower is
# repaired while replication to a third node lags; with the stamper
# unreachable the alert is dropped and counted lost.
go test -race -count=10 -run '^(TestOverlappingIncidentsHoldTheGate|TestPartialQuiescence|TestForwardedAlertRepairsLaggingNode|TestAlertDroppedWhenStamperDown)$' ./internal/cluster/
# Route gate: no second incident leader. No non-test file in
# internal/cluster registers the per-node quiesce, release or repair routes.
if grep -rnE --include='*.go' --exclude='*_test.go' '/internal/v1/(quiesce|release|repair)' internal/cluster/; then
    echo "leader gate: internal/cluster serves a quiesce, release or repair route again (the stamper is the one incident leader)" >&2
    exit 1
fi

# Quiesce gate (docs/RECOVERY.md "Partial quiescence"): one key gate,
# machine.KeyGate, is every quiesce of both runtimes. There is exactly one
# gate type across shard, cluster and machine — no per-shard gate in the
# shard, no paused-key map of its own at the stamper. A pause drains the
# steps in flight on its keys and a worker reads nothing of a paused run; a
# clean run on a damaged run's shard commits while the repair is held; a
# cluster window on a paused key parks at the stamper instead of polling it.
gate_types=$(grep -rnE --include='*.go' --exclude='*_test.go' '^type [A-Za-z]*[Gg]ate struct' internal/shard/ internal/cluster/ internal/machine/ | wc -l)
if [ "$gate_types" -ne 1 ] || ! grep -q '^type KeyGate struct' internal/machine/gate.go; then
    echo "quiesce gate: want exactly one gate type, machine.KeyGate, across shard, cluster and machine (found $gate_types)" >&2
    exit 1
fi
if grep -rnE --include='*.go' --exclude='*_test.go' '^type gate struct' internal/shard/ \
    || grep -rn --include='*.go' --exclude='*_test.go' 'pausedKeys' internal/cluster/; then
    echo "quiesce gate: a second pause mechanism is back (a shard gate type or the stamper's pausedKeys)" >&2
    exit 1
fi
go test -race -count=20 -run '^TestKeyGateNests$' ./internal/machine/
go test -race -count=10 -run '^(TestQuiesceDrainsAndHidesPausedRuns|TestCleanRunServesOnDamagedShard|TestCleanShardsServeDuringRecovery)$' ./internal/shard/
go test -race -count=3 -run '^TestPausedWindowParks$' ./internal/cluster/

# Table gate: outside tests, shard, cluster and machine code compiles
# long-lived specs only through the service's intern table (wfjson.BuildIn,
# wfjson.DecodeIn with the table — a restore's snapshot specs and replayed
# spec records included), never through a path that gives a run private
# copies.
if grep -rnE --include='*.go' --exclude='*_test.go' -e 'wfjson\.(Build|Decode)\(' \
    -e 'NewBuilder\(' -e '\.Spec\(\)' -e '(BuildIn|DecodeIn)\(.*nil' internal/shard/ internal/cluster/ internal/machine/; then
    echo "table gate: a spec compiled outside the service's intern table (see wf.Interner)" >&2
    exit 1
fi

# No writer index beside the log (docs/ARCHITECTURE.md): an undo takes the
# writer's keys from its log entry, so internal/data keys no map by writer —
# nor by any other string.
if grep -rn --include='*.go' --exclude='*_test.go' 'map\[string\]' internal/data/; then
    echo "store gate: a string-keyed (writer) map in internal/data; the chains are the store's only index" >&2
    exit 1
fi

# Publish-after-durability gate (docs/DURABILITY.md): the commit pipeline
# never waits on a disk — durability waits belong to whoever hands a result
# to a client — so the pipeline names neither a sync nor the WAL package.
# Each worker commits its own step under the pipeline's mutex: no goroutine
# or channel stands between the workers and the log, so nothing group-
# commits (engine.CommitBatch is gone).
if grep -nE -e 'Sync' -e 'durable\.' -e 'chan ' -e '(^|[[:space:]])go [a-z]' internal/shard/pipeline.go \
    || grep -rn --include='*.go' 'CommitBatch(' .; then
    echo "pipeline gate: internal/shard/pipeline.go waits on the WAL or hands commits to a goroutine, or a group commit is back" >&2
    exit 1
fi
# The contracts that replace the wait: done => durable, 201 => spec
# durable, a snapshot covers only the durable prefix, a failed WAL fails
# runs. Each copies the WAL directory at the instant a client could look.
go test -race -count=20 -run '^(TestDoneImpliesDurable|TestSubmitAckImpliesSpecDurable|TestCheckpointCoversOnlyDurablePrefix|TestClosedWALFailsUndurableRuns)$' ./internal/shard/

# Restart equals live (docs/DURABILITY.md): after every checkpoint of seeded
# episodes, and between checkpoints once an admitted alert's repair has
# drained, the running service holds exactly the log, graph, store, runs and
# pre-epoch set a restart from a copy of its directory rebuilds, and both
# answer alerts alike — below the horizon with a typed refusal.
go test -race -count=3 -run '^(TestRestartEqualsLive|TestRestartMidIntervalEqualsLive|TestAlertBelowHorizon)$' ./internal/shard/

# One replay (docs/DURABILITY.md "Boot restore"): a durable service boots as
# a cluster replica does, restoring its machine from the snapshot
# (machine.Restore) and applying every record past it through the machine,
# so internal/durable only frames and decodes records: it builds no state
# and does not import the analyzer.
if go list -deps ./internal/durable | grep -qx 'selfheal/internal/recovery'; then
    echo "replay gate: internal/durable imports internal/recovery (the machine is the only code that turns records into state)" >&2
    exit 1
fi

# One horizon in every mode (docs/DURABILITY.md): an in-memory service
# keeps its horizon three intervals beneath its head and moves it every
# tick — an alert that late is still repaired, one a few entries later is a
# 410 after one tick, and under sustained commits nothing beyond the trail
# and one tick's commits stays resident — through a consistent cut no
# retired run straddles; an alert on a forge beneath the horizon is a 410 in
# every mode, and so is one on a live run's instance a checkpoint truncated;
# the horizon computed from what it may drop equals the full scan's (in
# internal/machine, below), and at the head of a quiesced service the
# snapshot's; the graph
# drops a prefix at a cost that does not follow what it keeps, and equals a
# graph seeded at each cut of a chain of small rebases. Checkpoint needs no
# WAL, and the snapshot formats of earlier commits still open.
go test -race -count=10 -run '^(TestMemoryHeapBoundedByHorizon|TestMemoryHorizonKeepsDetectionWindow|TestMemoryHorizonTrailsEveryTick|TestMemoryHorizonRetiredStraddler|TestAlertOnForgedRunBelowHorizon|TestAlertOnPreEpochRunBelowHorizon|TestHorizonAtHeadEqualsSnapshot)$' ./internal/shard/
go test -race -count=10 -run '^(TestRebaseEqualsSeededGraph|TestRebaseCostFollowsDropped|TestRebaseRacesAppend|TestFarSuccessors|TestBytesPerResidentEntry)$' ./internal/deps/
go test -count=1 -run '^(TestFrontierAt|TestTruncateBeforeEqualsNewAt|TestLookupsMatchIDMap|TestIndexBytesPerResidentEntry)$' -v ./internal/deps/ ./internal/wlog/
# The graph keeps each entry's successor list in the entry chunks, by
# ordinal (docs/ARCHITECTURE.md "The dependence graph"): no container keyed
# by instance ID holds a list per source, and the graph's heap per resident
# entry stays under half of what that container took (the race pass above
# skips the footprint test).
if grep -rn --include='*.go' --exclude='*_test.go' 'map\[wlog\.InstanceID\]\[\]succ' internal/deps/; then
    echo "graph gate: an instance-ID-keyed adjacency container in internal/deps (successor lists live in the entry chunks)" >&2
    exit 1
fi
go test -count=1 -run '^TestBytesPerResidentEntry$' -v ./internal/deps/
# The log's one lookup structure is its run index (docs/ARCHITECTURE.md):
# an instance is found through its run, so no map keyed by instance ID sits
# beside it. Lookups and duplicate refusals agree with such a map over a
# seeded stream with truncations on both branches, and the log's own heap
# per resident entry stays under the bound the ID map broke (the footprint
# test runs on the non-race line above).
if grep -rn --include='*.go' --exclude='*_test.go' 'map\[InstanceID\]\*Entry' internal/wlog/; then
    echo "log gate: an instance-ID map in internal/wlog (an instance is found through its run's entries)" >&2
    exit 1
fi
go test -race -count=10 -run '^(TestLookupsMatchIDMap|TestAppendBatchAtomicOnDuplicate)$' ./internal/wlog/
if grep -rn --include='*.go' --exclude='*_test.go' 'service has no durable WAL' .; then
    echo "horizon gate: a service refuses to checkpoint without a WAL (in-memory services forget too)" >&2
    exit 1
fi
go test -count=1 -run '^TestWALFromParentCommit$' ./internal/shard/

# The Strict-mode lost-init defect showed up in ~1 % of these episodes (a
# full repair queued ahead of a submission's init seeding); 200 runs keep
# the fix fixed.
go test -run 'TestEpisodeHealthyVariantsPass' -count=200 ./internal/fuzz/

# One way to install a repair (docs/RECOVERY.md "Partial quiescence in the
# shard layer"): every runtime merges a damage-scoped repair's chains into
# its one store, so no runtime swaps its store, and the shard service — with
# or without a WAL, Strict or not — computes repairs in exactly one function.
# Its registration and repair paths are exercised in every mode: runs
# registered inside the pin and closure windows, the coverage fallback, and
# refused registrations leaving no trace.
if grep -rn --include='*.go' --exclude='*_test.go' 'SwapStore' .; then
    echo "install gate: a store swap; repairs merge their chains (data.Store.AdoptChains)" >&2
    exit 1
fi
repair_fns=$(grep -rn --include='*.go' --exclude='*_test.go' 'recovery\.RepairGraph(' internal/shard/ internal/cluster/ internal/machine/ internal/selfheal/ | wc -l)
if [ "$repair_fns" -ne 1 ]; then
    echo "install gate: the runtimes call recovery.RepairGraph from $repair_fns sites, want the one repair path (machine.Machine.Repair)" >&2
    exit 1
fi
go test -race -count=20 -run '^(TestRunRegisteredWhileRepairPins|TestCoverageViolationFallsBackScoped|TestRefusedRegistrationLeavesNoTrace|TestSubmitInitSurvivesQueuedFullRepair)$' ./internal/shard/

# One state machine under every runtime (docs/ARCHITECTURE.md "The
# machine"): selfheal.System, shard.Service and the cluster replica forget,
# compute a horizon, check a repair against it, answer the 410 and capture
# a snapshot through internal/machine, so each has exactly one definition
# across the runtimes, and the replica neither repairs over a whole-log
# rebuild of its own nor counts visits beside the engine's run. The horizon
# oracle runs on the machine the runtimes call, and a seeded episode
# captures to the same bytes through the shard and the cluster.
for fn in forget horizonAt checkHorizon belowHorizon capture; do
    defs=$(grep -rniE --include='*.go' --exclude='*_test.go' "^func (\([^)]*\) )?$fn\(" internal/shard/ internal/cluster/ internal/machine/ internal/selfheal/ | wc -l)
    if [ "$defs" -ne 1 ]; then
        echo "machine gate: $defs definitions of $fn across internal/shard, internal/cluster, internal/selfheal and internal/machine, want the machine's one" >&2
        exit 1
    fi
done
if grep -rnE --include='*.go' --exclude='*_test.go' -e 'recovery\.Repair\(' -e 'type visitCounts' internal/cluster/; then
    echo "machine gate: internal/cluster repairs or counts visits itself (machine.Machine.Repair, engine.Run)" >&2
    exit 1
fi
go test -race -count=10 -run '^TestHorizonAtEqualsFullScan$' ./internal/machine/
go test -race -count=10 -run '^(TestRuntimesCaptureAlike|TestRepairResyncsOnlyRewrittenRuns|TestAdoptEqualsLegacyRepair)$' ./internal/cluster/

# Repair once, replicate its effect (docs/CLUSTER.md "One incident leader,
# partial quiescence"): the stamper computes a cluster repair once, over the one dependence graph
# internal/cluster builds, and stamps its effect as an adopt record, which
# every replica installs through machine.Machine.Install — followers build
# no graph and run no repair. Nothing stamps the legacy repair record any
# more; it only decodes, so an old journal still opens, and installing the
# adopt record equals applying it (TestAdoptEqualsLegacyRepair, above).
builds=$(grep -rn --include='*.go' --exclude='*_test.go' 'deps\.Build(' internal/cluster/ | wc -l)
if [ "$builds" -ne 1 ]; then
    echo "adopt gate: internal/cluster calls deps.Build from $builds sites, want the one repair compute (replica.repair)" >&2
    exit 1
fi
if grep -rn --include='*.go' --exclude='*_test.go' 'Kind: KindRepair' .; then
    echo "adopt gate: a repair record is stamped; the stream carries a repair's effect (KindAdopt)" >&2
    exit 1
fi

# One analyzer under every runtime (docs/TRIAGE.md): selfheal.System and
# shard.Service turn drained alerts into units of recovery tasks through
# triage.Stage, the one site that analyzes a damage cone, partitions a
# batch and arms the covered-alert prefilter; both admit alerts through
# machine.Machine.CheckAlerts, and the shard measures its repairs' phases
# through the repair tally every runtime keeps (machine.Tally).
analyze_fns=$(grep -rn --include='*.go' --exclude='*_test.go' 'recovery\.AnalyzeGraph(' internal/shard/ internal/selfheal/ internal/triage/ | wc -l)
if [ "$analyze_fns" -ne 1 ]; then
    echo "analyzer gate: recovery.AnalyzeGraph is called from $analyze_fns sites, want the analyzer stage's one (triage.Stage.Analyze)" >&2
    exit 1
fi
if grep -rnE --include='*.go' --exclude='*_test.go' -e 'triage\.NewCoverage\(' -e 'triage\.Partition\(' internal/shard/ internal/selfheal/; then
    echo "analyzer gate: a runtime partitions alerts or arms the prefilter itself (triage.Stage)" >&2
    exit 1
fi
go test -race -count=10 -run '^TestStage$' ./internal/triage/
go test -race -count=10 -run '^TestRepairPhasesObserved$' ./internal/shard/

# The end-to-end benchmark is its own module (bench/, `replace selfheal =>
# ../`) compiled against internal packages, which `go build ./...` above
# never enters: build, vet and its toy-size tests here so internal-API drift
# against it fails CI, not the next benchmark run.
go build -C bench ./...
(cd bench && go vet ./... && go test ./...)

# Benchmark smoke: the parallel-repair, mid-recovery and alert-storm
# benchmarks must run to completion (one iteration each; EXPERIMENTS.md
# records real numbers).
go test -run '^$' -bench '^Benchmark(Repair|AlertStorm)' -benchtime=1x .

# Compiled-spec benchmark smoke: validation, lookup, control closure and
# blueprint generation (EXPERIMENTS.md records real numbers).
go test -run '^$' -bench '^Benchmark(Validate|SpecTask|ControlClosure|GenerateBlueprint)$' -benchtime=1x ./internal/wf/

# Durability benchmark smoke: WAL append (group-commit) and the durable
# service's boot (snapshot-bounded replay through the machine) must run;
# BENCH_durability.json records real numbers.
go test -run '^$' -bench '^BenchmarkAppend$' -benchtime=1x ./internal/durable/
go test -run '^$' -bench '^BenchmarkReplay$' -benchtime=1x ./internal/shard/

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
# with -join, a batched commit storm with a SIGKILL mid-batch, a windowed
# chain run, and forced checkpoints until the first segments retire, then a
# SIGKILLed, wiped follower rejoining from a snapshot — each ending with
# byte-identical stores on every node (scripts/clustersmoke orchestrates
# the processes itself).
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
