package wf_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	"selfheal/internal/wf"
	"selfheal/internal/wfjson"
)

// benchShape is the workflow shape of every benchmark run (bench/gen.go
// genConfig) for the first tenant.
var benchShape = wf.GenConfig{Tasks: 8, Keys: 6, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3, Prefix: "a0_"}

// stableBlueprints are the wire documents GenerateBlueprint yields for fixed
// seeds, as SHA-256 over the JSON of 64 consecutive blueprints per seed. The
// end-to-end benchmark derives every run it submits from these draws, so a
// change to the generator's output or to its rng draw sequence changes the
// benchmark's inputs; this pins them.
var stableBlueprints = []struct {
	name string
	cfg  wf.GenConfig
	seed int64
	want string
}{
	// The benchmark's per-tenant seed derivation (bench/gen.go generate).
	{"bench", benchShape, 51 * 1_000_003,
		"a6c4d0c9850ff0ee57aa066612a785dab6ba5330d5670ba9139f8340386b2236"},
	{"bench", benchShape, 60*1_000_003 + 1,
		"32b5a306d20ad3acb62f5de0feb91fc2e185841cf551378c2a58e22dc6ff636d"},
	{"default", wf.DefaultGenConfig(), 1,
		"00c34243d5439ec5a70ee3d04f680320627da015e2a4d9eb26b0fe4b3fb6287e"},
	{"default", wf.DefaultGenConfig(), 51,
		"e99cb37e88c46d2b25a57c9091d466733a8357b54bffd678a78471206ec875cd"},
}

func TestGenerateBlueprintStable(t *testing.T) {
	for _, c := range stableBlueprints {
		rng := rand.New(rand.NewSource(c.seed))
		h := sha256.New()
		for i := 0; i < 64; i++ {
			bp := wf.GenerateBlueprint("r", c.cfg, rng)
			b, err := json.Marshal(wfjson.FromBlueprint(bp))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s seed %d: blueprints hash %s, want %s", c.name, c.seed, got, c.want)
		}
	}
}
