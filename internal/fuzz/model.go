package fuzz

import (
	"encoding/json"
	"fmt"

	"selfheal/internal/wf"
	"selfheal/internal/wlog"
)

// OpKind discriminates schedule operations.
type OpKind string

const (
	// OpSubmit submits a workflow run (POST /api/v1/runs).
	OpSubmit OpKind = "submit"
	// OpForge commits a forged task instance (POST /api/v1/chaos/forge).
	OpForge OpKind = "forge"
	// OpAlert reports a batch of IDS alerts (POST /api/v1/alerts),
	// retrying until the whole batch is admitted.
	OpAlert OpKind = "alert"
	// OpCheckpoint moves the horizon to the head (POST
	// /api/v1/chaos/checkpoint): a durable target writes a snapshot, an
	// in-memory one forgets without one.
	OpCheckpoint OpKind = "checkpoint"
	// OpDrain waits until recovery is drained and all runs retired.
	OpDrain OpKind = "drain"
	// OpRestart crash-restarts the target (SIGKILL on process targets) and
	// reconnects; ignored on targets that cannot restart.
	OpRestart OpKind = "restart"
)

// ForgeTask is the task name every forged instance uses. Forged commits
// always get visit 1, so a forge on attack run "atk3" is deterministically
// instance "atk3/x#1" — which lets alerts be generated before execution.
const ForgeTask = "x"

// Op is one schedule operation. Exactly the fields of its Kind are set.
type Op struct {
	Kind OpKind `json:"kind"`

	// Run is the run ID (submit) or the forged attack run name (forge).
	Run string `json:"run,omitempty"`
	// Blueprint is the submitted workflow (submit).
	Blueprint *wf.Blueprint `json:"blueprint,omitempty"`

	// Reads and Writes describe the forged instance (forge): the keys whose
	// latest versions it observes and the corrupt values it commits.
	Reads  []string         `json:"reads,omitempty"`
	Writes map[string]int64 `json:"writes,omitempty"`

	// Batch is the alert batch (alert): each element is one alert's bad
	// set of instance IDs.
	Batch [][]string `json:"batch,omitempty"`
}

// ForgedInstance returns the deterministic instance ID a forge op commits.
func (o *Op) ForgedInstance() wlog.InstanceID {
	return wlog.FormatInstance(o.Run, ForgeTask, 1)
}

// Schedule is a deterministic, serializable fuzzing episode.
type Schedule struct {
	// Seed reproduces the schedule via GenSchedule; informational once the
	// ops are serialized.
	Seed int64 `json:"seed"`
	// Ops are executed in order; the runner appends a final drain and the
	// oracle checks implicitly.
	Ops []Op `json:"ops"`
}

// Validate checks the structural invariants the runner and shrinker rely
// on:
//
//   - submits and forges have unique run names, and every forge is alerted
//     eventually — otherwise the benign-equality oracle would fail
//     vacuously on an unrepaired attack;
//   - alerts only name instances earlier ops create (forged instances, or
//     start tasks of submitted runs);
//   - checkpoints happen only at repaired quiescence: an OpCheckpoint must
//     directly follow an OpDrain and every earlier forge must already be
//     alerted, since a snapshot capturing unrepaired damage compacts the
//     attack evidence away (snapshot-bounded replay, docs/DURABILITY.md)
//     and the corruption becomes unrecoverable by design;
//   - alerts never name instances created before the latest checkpoint —
//     after a crash-restart those log entries are beneath the snapshot
//     epoch and the service rejects the accusation.
func (s *Schedule) Validate() error {
	submittedAfterCkpt := map[string]bool{}
	forged := map[wlog.InstanceID]bool{}
	forgedAfterCkpt := map[wlog.InstanceID]bool{}
	alerted := map[wlog.InstanceID]bool{}
	for i, op := range s.Ops {
		switch op.Kind {
		case OpSubmit:
			if op.Run == "" || op.Blueprint == nil {
				return fmt.Errorf("fuzz: op %d: submit needs run and blueprint", i)
			}
			if submittedAfterCkpt[op.Run] {
				return fmt.Errorf("fuzz: op %d: duplicate run %q", i, op.Run)
			}
			if _, err := op.Blueprint.Spec(); err != nil {
				return fmt.Errorf("fuzz: op %d: run %q: %w", i, op.Run, err)
			}
			submittedAfterCkpt[op.Run] = true
		case OpForge:
			if op.Run == "" || len(op.Writes) == 0 {
				return fmt.Errorf("fuzz: op %d: forge needs run and writes", i)
			}
			inst := op.ForgedInstance()
			if forged[inst] {
				return fmt.Errorf("fuzz: op %d: duplicate forge %s", i, inst)
			}
			forged[inst] = true
			forgedAfterCkpt[inst] = true
		case OpAlert:
			if len(op.Batch) == 0 {
				return fmt.Errorf("fuzz: op %d: empty alert batch", i)
			}
			for _, bad := range op.Batch {
				if len(bad) == 0 {
					return fmt.Errorf("fuzz: op %d: alert names no instances", i)
				}
				for _, id := range bad {
					inst := wlog.InstanceID(id)
					if forged[inst] {
						if !forgedAfterCkpt[inst] {
							return fmt.Errorf("fuzz: op %d: alert names %s, forged before the latest checkpoint", i, id)
						}
						alerted[inst] = true
						continue
					}
					run, ok := accusedRun(id)
					if !ok || !submittedAfterCkpt[run] {
						return fmt.Errorf("fuzz: op %d: alert names %s, which no op since the latest checkpoint creates", i, id)
					}
				}
			}
		case OpCheckpoint:
			if i == 0 || s.Ops[i-1].Kind != OpDrain {
				return fmt.Errorf("fuzz: op %d: checkpoint must directly follow a drain (snapshots only at repaired quiescence)", i)
			}
			for inst := range forged {
				if !alerted[inst] {
					return fmt.Errorf("fuzz: op %d: checkpoint with unrepaired forge %s — the snapshot would bake the corruption in", i, inst)
				}
			}
			submittedAfterCkpt = map[string]bool{}
			forgedAfterCkpt = map[wlog.InstanceID]bool{}
		case OpDrain, OpRestart:
			// No payload.
		default:
			return fmt.Errorf("fuzz: op %d: unknown kind %q", i, op.Kind)
		}
	}
	for inst := range forged {
		if !alerted[inst] {
			return fmt.Errorf("fuzz: forge %s is never alerted — the schedule leaves the attack unrepaired", inst)
		}
	}
	return nil
}

// accusedRun extracts the run name from an accused instance ID
// ("run/task#visit").
func accusedRun(id string) (string, bool) {
	for i := 0; i < len(id); i++ {
		if id[i] == '/' {
			return id[:i], i > 0
		}
	}
	return "", false
}

// EncodeSchedule serializes a schedule as indented JSON (the corpus entry
// payload format).
func EncodeSchedule(s *Schedule) ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// DecodeSchedule parses a schedule and validates it.
func DecodeSchedule(b []byte) (*Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("fuzz: schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
