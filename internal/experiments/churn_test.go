package experiments

import (
	"bytes"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/runner"
)

// churnTestConfig is a small dumbbell with forward and reverse churn:
// every protocol arrives, the run is short, and LeakCheck (armed by
// TestMain) audits the freelist invariant after the mid-run departures.
func churnTestConfig(shards int) TopoSimConfig {
	cfg := parkingLotBase(Sizing{SimFactor: 0.04, Shards: shards})
	cfg.MirrorRev = true
	cfg.Seed = 9400
	cfg.ForceEpochs = churnEpochs
	end := cfg.Warmup + cfg.Duration
	cfg.Churn = []arrivals.Spec{
		{
			Name: "tfrc", Proto: arrivals.TFRC,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 10},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 30},
			Stop: end, MaxArrivals: 400, Seed: 9401,
		},
		{
			Name: "mice", Proto: arrivals.TCP,
			Gap:  arrivals.Gap{Kind: arrivals.Weibull, Shape: 0.6, Scale: 0.03},
			Size: arrivals.Size{Kind: arrivals.Pareto, Shape: 1.3, MinPackets: 4, CapPackets: 80},
			Stop: end, MaxArrivals: 800, Seed: 9402,
		},
		{
			Name: "rev", Proto: arrivals.TCP, Reverse: true,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 8},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 6},
			Stop: end, MaxArrivals: 300, Seed: 9403,
		},
		{
			Name: "cbr", Proto: arrivals.CBR, CBRRate: 100,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 5},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 4},
			Stop: end, MaxArrivals: 200, Seed: 9404,
		},
	}
	return cfg
}

// The serial engine must reclaim departed churn flows (the leak
// invariant after mid-run detach is asserted inside the run by
// LeakCheck) and still force the epoch log for the folds.
func TestChurnServesAndReclaims(t *testing.T) {
	t.Parallel()
	res := RunTopoSim(churnTestConfig(0))
	if len(res.Churn) != 4 {
		t.Fatalf("%d churn classes reported, want 4", len(res.Churn))
	}
	for _, c := range res.Churn {
		if c.Arrivals == 0 {
			t.Fatalf("class %s: no arrivals", c.Name)
		}
		if c.Completions == 0 {
			t.Fatalf("class %s: no completions", c.Name)
		}
		if c.Reclaimed == 0 {
			t.Fatalf("class %s: serial run reclaimed nothing", c.Name)
		}
		if c.Constructions >= c.Arrivals {
			t.Fatalf("class %s: endpoint pool never reused (%d constructions, %d arrivals)",
				c.Name, c.Constructions, c.Arrivals)
		}
	}
	if res.Obs == nil || res.Obs.Epochs == nil {
		t.Fatal("ForceEpochs did not produce an epoch log")
	}
	if got := len(res.Obs.Epochs.Epochs); got != churnEpochs {
		t.Fatalf("%d epochs recorded, want %d", got, churnEpochs)
	}
}

// churnSignature collapses the executor-invariant part of a run for
// byte comparison: class results minus the reclamation counters (the
// sharded engine never detaches, so Constructions/Reclaimed are the one
// sanctioned difference), plus the epoch deltas.
func churnSignature(res TopoSimResult) []arrivals.ClassResult {
	sig := make([]arrivals.ClassResult, len(res.Churn))
	for i, c := range res.Churn {
		c.Constructions = 0
		c.Reclaimed = 0
		sig[i] = c
	}
	return sig
}

// The churn engine must not disturb the determinism contract: the same
// arrivals, completions, populations and Palm statistics — and the same
// engine event count — on the serial engine and at every shard count.
func TestChurnShardedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level determinism check skipped in -short mode")
	}
	serial := RunTopoSim(churnTestConfig(0))
	want := churnSignature(serial)
	for _, k := range []int{1, 2, 3, 4} {
		got := RunTopoSim(churnTestConfig(k))
		if got.EventsFired != serial.EventsFired {
			t.Fatalf("shards=%d fired %d events, serial %d", k, got.EventsFired, serial.EventsFired)
		}
		for i, g := range churnSignature(got) {
			if g != want[i] {
				t.Fatalf("shards=%d class %s differs:\nserial  %+v\nsharded %+v",
					k, g.Name, want[i], g)
			}
		}
		if k < 2 {
			continue // shards=1 runs on the serial engine and reclaims
		}
		for _, c := range got.Churn {
			if c.Reclaimed != 0 || c.Constructions != c.Arrivals {
				t.Fatalf("shards=%d class %s: cluster must never reclaim (%+v)", k, c.Name, c)
			}
		}
	}
}

// The churn scenario family must fold byte-identically from a worker
// pool and at every shard count — the property the CI determinism
// sweep gates (with and without the observability flags).
func TestChurnScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level determinism check skipped in -short mode")
	}
	t.Parallel()
	sz := Sizing{Events: 2000, SimFactor: 0.03, Pairs: []int{1}, PairsCap: 1}
	for _, name := range []string{"flashcrowd", "webmice", "surge"} {
		s, ok := Lookup(name)
		if !ok || !s.Sharded {
			t.Fatalf("%s: not registered as sharded", name)
		}
		serial := renderAll(t, name, sz, runner.Serial{})
		if len(serial) == 0 {
			t.Fatalf("%s: empty serial output", name)
		}
		par := renderAll(t, name, sz, runner.NewPool(8))
		if !bytes.Equal(serial, par) {
			t.Fatalf("%s: parallel TSV differs from serial", name)
		}
		for _, k := range []int{2, 4} {
			szk := sz
			szk.Shards = k
			got := renderAll(t, name, szk, runner.Serial{})
			if !bytes.Equal(serial, got) {
				t.Fatalf("%s: %d-shard TSV differs from serial\nserial:\n%s\nsharded:\n%s",
					name, k, serial, got)
			}
		}
	}
}

// A reverse churn class on a chain without a mirrored reverse path is a
// configuration error, not silent misrouting.
func TestChurnReverseNeedsMirrorRev(t *testing.T) {
	t.Parallel()
	cfg := churnTestConfig(0)
	cfg.MirrorRev = false
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for reverse churn without MirrorRev")
		}
	}()
	RunTopoSim(cfg)
}
