// Package durable persists the shard service's state: a segmented
// group-commit write-ahead log (wal.go), point-in-time snapshots of the
// whole system state (snapshot.go), and the boot-path restore that replays
// the bounded record tail beyond the latest snapshot (restore.go).
//
// Underneath sits the shared layer every persisted record log in the tree
// is built on: SegmentLog (segment.go) — segment files, [len][crc][payload]
// framing, torn-tail truncation, corruption refusal, rotation, retirement —
// and the binary field codec (codec.go: the Append* primitives, Reader and
// the entry body). The WAL is one user; the cluster journal and replication
// wire (internal/cluster) are the other.
//
// The durability contract is ack-after-fsync: every record a committer
// needs durable is fsynced before the caller unblocks, so any state the
// service acknowledged over the API survives a crash (kill -9) and is
// reconstructed by restore. Snapshots bound both replay time and store
// history: the store is compacted at the snapshot's entry-LSN horizon
// (Epoch), below which history is frozen — see internal/recovery's
// compaction-horizon handling and docs/DURABILITY.md for the end-to-end
// design.
package durable
