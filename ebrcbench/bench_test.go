package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/experiments"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// orchestrator re-executes itself with -child for every pass.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tinyHorizon shrinks every simulated duration so a whole run of a
// workload takes a fraction of a second.
const tinyHorizon = "0.01"

func runBench(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-horizon", tinyHorizon, "-seconds", "0.1", "-out", t.TempDir()}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("ebrcbench %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line of output is not a result: %v", err)
	}
	return res
}

// checkMetrics asserts the printed metrics are exactly the declared
// ones, each with its declared unit.
func checkMetrics(t *testing.T, got metrics, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, d := range want {
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("metric %s not printed", d.Name)
			continue
		}
		if v.Unit != d.Unit {
			t.Errorf("metric %s printed with unit %q, declared %q", d.Name, v.Unit, d.Unit)
		}
	}
}

// TestTinyHorizonRuns runs every workload end to end at a tiny horizon,
// untraced and traced, at two seeds: every job passes its output checks
// and exactly the declared metrics come out.
func TestTinyHorizonRuns(t *testing.T) {
	for _, w := range workloadNames {
		for _, seed := range []string{"1", "2"} {
			for _, trace := range []string{"0", "1"} {
				res := runBench(t, "-workload", w, "-seed", seed, "-trace", trace)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s seed %s trace %s: correct=%v attempted=%d failed=%d",
						w, seed, trace, res.Correct, res.Attempted, res.Failed)
				}
				want := endToEndMetrics
				if trace == "1" {
					want = perLayerMetrics
				}
				checkMetrics(t, res.Metrics, want)
			}
		}
	}
}

// TestBenchmarkJSONDeclaresTheMetrics keeps BENCHMARK.json and the
// metric catalogue the benchmark prints from in step.
func TestBenchmarkJSONDeclaresTheMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%+v\ncatalogue:\n%+v", spec.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer in BENCHMARK.json:\n%+v\ncatalogue:\n%+v", spec.PerLayer, perLayerMetrics)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
}

// tracedPass runs one workload's untraced and traced passes in this
// process and returns both reports.
func tracedPass(t *testing.T, name string) (u, tr *passReport) {
	t.Helper()
	w, err := buildWorkload(name, 3, 0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if u, err = runUntraced(w, filepath.Join(dir, "ckpt")); err != nil {
		t.Fatal(err)
	}
	if tr, err = runTraced(w, u, filepath.Join(dir, "spans.json")); err != nil {
		t.Fatal(err)
	}
	return u, tr
}

// TestTracedEventsEqualUntraced checks the traced rebuild of every job
// fires exactly the events of the untraced run and reproduces its
// per-flow statistics.
func TestTracedEventsEqualUntraced(t *testing.T) {
	for _, name := range workloadNames {
		u, tr := tracedPass(t, name)
		for i, j := range tr.Jobs {
			if j.Err != "" || j.Events != u.Jobs[i].Events || j.Events == 0 {
				t.Errorf("%s %s: traced %d events (err %q), untraced %d",
					name, j.Name, j.Events, j.Err, u.Jobs[i].Events)
			}
		}
	}
}

// TestShardedShims runs the sharded workload's traced pass on the
// goroutine-per-shard driver; under -race it checks that the per-shard
// span lanes are only written by their own shard's goroutine.
func TestShardedShims(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	_, tr := tracedPass(t, wlSharded)
	for _, j := range tr.Jobs {
		if j.Err != "" {
			t.Errorf("%s: %s", j.Name, j.Err)
		}
	}
	if tr.Layer["shard.windows"] == 0 || tr.Layer["shard.handoff_ns"] == 0 {
		t.Errorf("sharded traced pass: windows %v, handoff_ns %v",
			tr.Layer["shard.windows"], tr.Layer["shard.handoff_ns"])
	}
}

// TestDigestLeavesOutEngineCounts checks the golden digest pins the
// simulation's results but not its event count or churn pool
// bookkeeping: an engine change that fires fewer events for the same
// output still matches golden.json.
func TestDigestLeavesOutEngineCounts(t *testing.T) {
	r := experiments.TopoSimResult{EventsFired: 100, Churn: []arrivals.ClassResult{
		{Name: "mice", Arrivals: 5, Constructions: 2, Reclaimed: 1},
	}}
	want, _ := topoDigests(r)
	r.EventsFired, r.Churn[0].Constructions, r.Churn[0].Reclaimed = 90, 5, 0
	if got, _ := topoDigests(r); got != want {
		t.Errorf("topology digest moved with the engine counts: %s, was %s", got, want)
	}
	r.Churn[0].Arrivals++
	if got, _ := topoDigests(r); got == want {
		t.Error("topology digest did not see a changed arrival count")
	}
	s := experiments.SimResult{EventsFired: 100}
	wantSim, _ := simDigests(s)
	s.EventsFired = 90
	if got, _ := simDigests(s); got != wantSim {
		t.Errorf("dumbbell digest moved with the event count: %s, was %s", got, wantSim)
	}
}

// TestCheckerComparesEventsWithinARun checks that within one run a job
// whose event count changes between passes fails, although its digest
// is unchanged.
func TestCheckerComparesEventsWithinARun(t *testing.T) {
	c := &checker{ref: map[string]jobResult{}}
	c.check("wall", &passReport{Jobs: []jobResult{{Name: "j", Digest: "d", Events: 100}}})
	c.check("wall", &passReport{Jobs: []jobResult{{Name: "j", Digest: "d", Events: 100}}})
	if c.failed != 0 {
		t.Fatalf("identical passes: %d failed: %s", c.failed, c.summary())
	}
	c.check("wall", &passReport{Jobs: []jobResult{{Name: "j", Digest: "d", Events: 90}}})
	if c.attempted != 3 || c.failed != 1 {
		t.Errorf("event count changed between passes: attempted %d, failed %d", c.attempted, c.failed)
	}
}
