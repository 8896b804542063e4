package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/perfbench"
)

// benchEntry is one benchmark's record in the BENCH_<n>.json report.
type benchEntry struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerRun uint64  `json:"events_per_run,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// benchReport is the schema of BENCH_<n>.json: one file per PR so the
// perf trajectory of the simulator is recorded alongside the code.
type benchReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	// GoMaxProcs and NumCPU record the host parallelism the numbers
	// were taken under — without them a sharded-engine speedup (or its
	// absence on a single-CPU recorder) cannot be interpreted later.
	GoMaxProcs int          `json:"gomaxprocs,omitempty"`
	NumCPU     int          `json:"num_cpu,omitempty"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

// selectBenchmarks resolves the -benchrun filter over perfbench.Suite:
// an empty filter keeps the whole suite, otherwise the comma-separated
// names (whitespace tolerated, like -run) select a subset in suite
// order. Unknown names are an error so a typo cannot silently record
// an empty report.
func selectBenchmarks(filter string) ([]perfbench.Body, error) {
	if strings.TrimSpace(filter) == "" {
		return perfbench.Suite, nil
	}
	known := make([]string, len(perfbench.Suite))
	for i, b := range perfbench.Suite {
		known[i] = b.Name
	}
	picked := make(map[string]bool)
	for _, raw := range strings.Split(filter, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		if !slices.Contains(known, name) {
			return nil, fmt.Errorf("unknown benchmark %q (have: %s)",
				name, strings.Join(known, ", "))
		}
		picked[name] = true
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("empty -benchrun filter")
	}
	var sel []perfbench.Body
	for _, b := range perfbench.Suite {
		if picked[b.Name] {
			sel = append(sel, b)
		}
	}
	return sel, nil
}

// runBenchSuite executes the canonical hot-path benchmark bodies of
// perfbench.Suite via testing.Benchmark — the same bodies `go test
// -bench Suite ./internal/perfbench` runs — and writes the report to
// outPath. filter, when non-empty, is a comma-separated benchmark-name
// list (like -run) that restricts the suite — handy for CI shards and
// local iteration on one hot path.
func runBenchSuite(outPath, filter string, stdout, stderr io.Writer) int {
	selected, err := selectBenchmarks(filter)
	if err != nil {
		fmt.Fprintf(stderr, "ebrc: %v\n", err)
		return 2
	}
	report := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}

	record := func(name string, bench func(*testing.B)) {
		r := testing.Benchmark(bench)
		e := benchEntry{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if v, ok := r.Extra["events/run"]; ok {
			e.EventsPerRun = uint64(v)
		}
		if v, ok := r.Extra["events/sec"]; ok {
			e.EventsPerSec = v
		} else if r.T > 0 {
			// The scheduler benches fire one event per op.
			e.EventsPerSec = float64(r.N) / r.T.Seconds()
		}
		report.Benchmarks = append(report.Benchmarks, e)
		fmt.Fprintf(stdout, "%-28s %12.1f ns/op %8d allocs/op %14.0f events/sec\n",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.EventsPerSec)
	}

	for _, b := range selected {
		record(b.Name, b.Bench)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "ebrc: %v\n", err)
		return 1
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "ebrc: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", outPath)
	return 0
}
