package campaign

import (
	"testing"

	"selfheal/internal/selfheal"
	"selfheal/internal/wf"
)

func TestRunValidates(t *testing.T) {
	if _, err := Run(Config{Runs: 0, MaxTicks: 10}); err == nil {
		t.Error("zero runs accepted")
	}
	if _, err := Run(Config{Runs: 1, MaxTicks: 0}); err == nil {
		t.Error("zero ticks accepted")
	}
}

func TestCampaignEndToEnd(t *testing.T) {
	attacked := 0
	for seed := int64(0); seed < 10; seed++ {
		rep, err := Run(DefaultConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Committed == 0 {
			t.Errorf("seed %d: nothing committed", seed)
		}
		if !rep.Verified {
			t.Errorf("seed %d: final history invalid: %v", seed, rep.VerifyErrors)
		}
		if rep.AttacksCommitted > 0 {
			attacked++
			if rep.Reported == 0 {
				t.Errorf("seed %d: attacks committed but never reported", seed)
			}
			if rep.Metrics.UnitsExecuted == 0 {
				t.Errorf("seed %d: reports delivered but no recovery ran", seed)
			}
			if rep.Metrics.Undone == 0 {
				t.Errorf("seed %d: recovery ran but undid nothing", seed)
			}
		}
	}
	if attacked == 0 {
		t.Error("no campaign had a committed attack across 10 seeds")
	}
}

func TestCampaignDeterministicPerSeed(t *testing.T) {
	a, err := Run(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Committed != b.Committed || a.Reported != b.Reported || a.Metrics.Undone != b.Metrics.Undone {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestCampaignWithEagerAndConcurrentModes(t *testing.T) {
	for _, mode := range []struct {
		name string
		mut  func(*Config)
	}{
		{"concurrent", func(c *Config) { c.System.Concurrent = true }},
		{"eager", func(c *Config) { c.System.EagerRecovery = true }},
		{"coalesce", func(c *Config) { c.System.Triage.Coalesce = true }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := DefaultConfig(5)
			mode.mut(&cfg)
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Verified {
				t.Errorf("final history invalid: %v", rep.VerifyErrors)
			}
		})
	}
}

func TestCampaignTinyBuffersLoseAlerts(t *testing.T) {
	lost := 0
	for seed := int64(0); seed < 20; seed++ {
		cfg := DefaultConfig(seed)
		cfg.System = selfheal.Config{AlertBuf: 1, RecoveryBuf: 1}
		cfg.Attacks = 6
		cfg.AlertRate = 5 // burst reporting into a size-1 buffer
		cfg.DetectionDelay = 0
		cfg.Gen = wf.GenConfig{Tasks: 14, Keys: 9, MaxReads: 3, BranchProb: 0.3}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lost += rep.Lost
		if !rep.Verified {
			t.Errorf("seed %d: invalid final history", seed)
		}
	}
	if lost == 0 {
		t.Error("size-1 buffers under burst reporting never lost an alert")
	}
}
