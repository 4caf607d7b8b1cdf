// Package fuzz is the stateful model-based fuzzer behind cmd/selfheal-fuzz
// (docs/FUZZING.md): it generates randomized attack schedules against the
// live /api/v1 surface and checks the paper's global soundness claims after
// every episode.
//
// A Schedule is a deterministic, serializable program of operations — run
// submissions (randomized wf.Blueprint workflows), forged task commits,
// IDS alert batches, checkpoints, drains, and crash-restarts — replayed
// against a Target (an HTTP server; in-process or a child process killed
// with SIGKILL). After the final drain the oracles assert:
//
//   - benign equality: the committed store equals the attack-free serial
//     execution of the submitted workflows alone (the paper's repaired ≡
//     attack-free claim, Theorems 1–2);
//   - chain integrity: data.CheckIndex holds on the live store (every
//     version chain ordered, no two versions of a key at one position);
//   - Theorem-3 ordering: no installed repair violated the repair DAG
//     (shard.Config.AuditRepairs, surfaced via GET /api/v1/chaos/verify);
//   - repairability: no repair was refused or failed — generated
//     schedules are repairable by construction, so a recovery error is a
//     soundness bug;
//   - completion: every acknowledged run finishes "done", even across
//     crash-restarts.
//
// Failing schedules are shrunk (Shrink) to a minimal reproducer — dropping
// operations first, then shrinking workflow specs — and serialized into a
// seed corpus (Corpus) that replays as ordinary go test regression cases.
package fuzz
