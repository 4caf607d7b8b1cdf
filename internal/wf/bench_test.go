package wf

import (
	"math/rand"
	"testing"
)

// benchGenConfig is the benchmark's workflow shape (bench/gen.go genConfig).
func benchGenConfig() GenConfig {
	return GenConfig{Tasks: 8, Keys: 6, MaxReads: 2, MaxWrites: 2, BranchProb: 0.3, Prefix: "a0_"}
}

// benchSpecs compiles n bench-shaped blueprints.
func benchSpecs(b *testing.B, n int) []*Spec {
	b.Helper()
	rng := rand.New(rand.NewSource(51))
	specs := make([]*Spec, n)
	for i := range specs {
		s, err := GenerateBlueprint("r", benchGenConfig(), rng).Spec()
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = s
	}
	return specs
}

// BenchmarkValidate validates bench-shaped compiled specs, as every
// submission does twice (wire compile and run registration).
func BenchmarkValidate(b *testing.B) {
	specs := benchSpecs(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := specs[i%len(specs)].Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpecTask looks up every task of a bench-shaped spec by ID, as
// every engine step and trace walk does; one op is one lookup.
func BenchmarkSpecTask(b *testing.B) {
	s := benchSpecs(b, 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Task(s.Tasks[i%len(s.Tasks)].ID) == nil {
			b.Fatal("task not found")
		}
	}
}

// BenchmarkControlClosure computes →_c* of cyclic DefaultGenConfig specs,
// as every control view does.
func BenchmarkControlClosure(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	cfg := DefaultGenConfig()
	cfg.Cycles = 2
	specs := make([]*Spec, 16)
	for i := range specs {
		specs[i] = Generate("c", cfg, rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specs[i%len(specs)].ControlClosure()
	}
}

// BenchmarkGenerateBlueprint generates bench-shaped blueprints, compile
// self-check included, as the benchmark's input generation does per run.
func BenchmarkGenerateBlueprint(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GenerateBlueprint("r", benchGenConfig(), rng)
	}
}
