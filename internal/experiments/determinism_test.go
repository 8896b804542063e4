package experiments

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/runner"
)

// renderAll writes every table of a scenario run to one buffer.
func renderAll(t *testing.T, name string, sz Sizing, ex runner.Executor) []byte {
	t.Helper()
	s, ok := Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	tables, err := s.Run(context.Background(), sz, ex)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tb := range tables {
		if err := tb.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// Regression: a registry scenario must emit byte-identical TSV whether
// its jobs run serially or on an 8-worker pool — the property the
// -parallel CLI mode relies on.
func TestScenarioParallelDeterminism(t *testing.T) {
	t.Parallel()
	sz := Sizing{Events: 2000, SimFactor: 0.08, Pairs: []int{1, 4}, PairsCap: 2}
	serial := renderAll(t, "fig3", sz, runner.Serial{})
	if len(serial) == 0 {
		t.Fatal("empty serial output")
	}
	for run := 0; run < 2; run++ {
		par := renderAll(t, "fig3", sz, runner.NewPool(8))
		if !bytes.Equal(serial, par) {
			t.Fatalf("run %d: parallel TSV differs from serial\nserial:\n%s\nparallel:\n%s",
				run, serial, par)
		}
	}
}

// The same property for a packet-level scenario, where the jobs are
// full dumbbell simulations.
func TestSimScenarioParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level determinism check skipped in -short mode")
	}
	t.Parallel()
	sz := Sizing{Events: 2000, SimFactor: 0.04, Pairs: []int{1, 2}, PairsCap: 2}
	serial := renderAll(t, "fig8", sz, runner.Serial{})
	par := renderAll(t, "fig8", sz, runner.NewPool(8))
	if !bytes.Equal(serial, par) {
		t.Fatalf("parallel sim TSV differs from serial\nserial:\n%s\nparallel:\n%s", serial, par)
	}
}

// The same property for the multi-hop topology, routed-reverse and
// scale-out scenarios: the parking-lot, multi-bottleneck, reverse-path
// and scale-chain sweeps must fold byte-identically from a worker pool.
// The scale-out runs also exercise the run-arena reuse hardest — many
// replications recycling schedulers and packet pools across workers —
// and the TestMain leak check is armed for every one of them.
func TestTopoScenarioParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level determinism check skipped in -short mode")
	}
	t.Parallel()
	sz := Sizing{Events: 2000, SimFactor: 0.04, Pairs: []int{1}, PairsCap: 1}
	for _, name := range []string{"multibneck", "parkinglot", "hetrtt", "revcross", "ackshare", "asymrev", "scalechain",
		"linkflap", "burstloss", "capdrop"} {
		serial := renderAll(t, name, sz, runner.Serial{})
		if len(serial) == 0 {
			t.Fatalf("%s: empty serial output", name)
		}
		par := renderAll(t, name, sz, runner.NewPool(8))
		if !bytes.Equal(serial, par) {
			t.Fatalf("%s: parallel TSV differs from serial\nserial:\n%s\nparallel:\n%s",
				name, serial, par)
		}
	}
}

// Every registered scenario must expand to at least one job and fold
// without error under a tiny sizing... cheap structural checks only:
// expansion must be deterministic and job names unique enough to audit.
func TestRegistryExpansion(t *testing.T) {
	t.Parallel()
	sz := Sizing{Events: 100, SimFactor: 0.01, Pairs: []int{1}, PairsCap: 1}
	for _, s := range Scenarios() {
		jobs, fold := s.Plan(sz)
		if len(jobs) == 0 {
			t.Errorf("%s: no jobs", s.Name)
		}
		if fold == nil {
			t.Errorf("%s: nil fold", s.Name)
		}
		jobs2, _ := s.Plan(sz)
		if len(jobs2) != len(jobs) {
			t.Errorf("%s: expansion not deterministic (%d vs %d jobs)",
				s.Name, len(jobs), len(jobs2))
		}
		for i := range jobs {
			if jobs[i].Name != jobs2[i].Name || jobs[i].Seed != jobs2[i].Seed {
				t.Errorf("%s: job %d differs across expansions", s.Name, i)
			}
		}
	}
	if len(Scenarios()) < 25 {
		t.Fatalf("registry has %d scenarios, want >= 25", len(Scenarios()))
	}
}

// The tentpole determinism contract of the sharded executor: the
// multi-hop, routed-reverse and scale-out scenarios must emit
// byte-identical TSV when every simulation is split across 2 or 4
// shards — events column included — versus the serial engine. The
// TestMain leak check is armed, so every sharded run also audits the
// cross-shard freelist protocol (per-shard and global Outstanding ==
// InNetwork, all bundles drained) at the end of the run, drops on cut
// links included.
func TestShardedScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level determinism check skipped in -short mode")
	}
	t.Parallel()
	sz := Sizing{Events: 2000, SimFactor: 0.04, Pairs: []int{1}, PairsCap: 1}
	for _, name := range []string{"multibneck", "parkinglot", "hetrtt", "revcross", "ackshare", "asymrev", "scalechain",
		"linkflap", "burstloss", "capdrop"} {
		s, ok := Lookup(name)
		if !ok || !s.Sharded {
			t.Fatalf("%s: not registered as sharded", name)
		}
		serial := renderAll(t, name, sz, runner.Serial{})
		if len(serial) == 0 {
			t.Fatalf("%s: empty serial output", name)
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

// The same bytes must come out of the window driver at a shard count
// that splits the graph unevenly.
func TestShardedParallelDriverDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level determinism check skipped in -short mode")
	}
	sz := Sizing{Events: 2000, SimFactor: 0.04, Pairs: []int{1}, PairsCap: 1}
	for _, name := range []string{"scalechain", "linkflap"} {
		serial := renderAll(t, name, sz, runner.Serial{})
		szk := sz
		szk.Shards = 3
		got := renderAll(t, name, szk, runner.Serial{})
		if !bytes.Equal(serial, got) {
			t.Fatalf("%s: 3-shard TSV differs from serial\nserial:\n%s\nsharded:\n%s",
				name, serial, got)
		}
	}
}
