package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBenchFile(t *testing.T, dir, name string, entries []benchEntry) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(benchReport{GoVersion: "test", Benchmarks: entries})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The benchcmp gate: pass within tolerance, fail on a speed drop past
// tol (ns/op above the baseline's over 1-tol) or an allocs/op increase,
// and ignore benchmarks present in only one report.
func TestBenchCmp(t *testing.T) {
	dir := t.TempDir()
	base := []benchEntry{
		{Name: "DumbbellSteadyState", NsPerOp: 1.46e+07, EventsPerSec: 6e6, AllocsPerOp: 2800, BytesPerOp: 150000},
		{Name: "SchedulerFire", NsPerOp: 14.3, EventsPerSec: 7e7, AllocsPerOp: 0},
		{Name: "RetiredBench", NsPerOp: 1000, EventsPerSec: 1e6, AllocsPerOp: 0},
	}
	old := writeBenchFile(t, dir, "old.json", base)

	cases := []struct {
		name    string
		entries []benchEntry
		want    int
		output  string
	}{
		{"within tolerance", []benchEntry{
			{Name: "DumbbellSteadyState", NsPerOp: 1.94667e+07, EventsPerSec: 4.5e6, AllocsPerOp: 2800, BytesPerOp: 155000},
			{Name: "SchedulerFire", NsPerOp: 14.3, EventsPerSec: 7e7, AllocsPerOp: 0},
		}, 0, "no regressions"},
		{"events per sec regression", []benchEntry{
			// The same work at half the events/sec: ns/op doubles.
			{Name: "DumbbellSteadyState", NsPerOp: 2.92e+07, EventsPerSec: 3e6, AllocsPerOp: 2800, BytesPerOp: 150000},
			{Name: "SchedulerFire", NsPerOp: 14.3, EventsPerSec: 7e7, AllocsPerOp: 0},
		}, 1, "speed fell >30%"},
		{"fewer events per run is no regression", []benchEntry{
			// The same run in fewer events: events/sec falls by half,
			// ns/op by a fifth, and only ns/op gates.
			{Name: "DumbbellSteadyState", NsPerOp: 1.168e+07, EventsPerSec: 3e6, AllocsPerOp: 2800, BytesPerOp: 150000},
			{Name: "SchedulerFire", NsPerOp: 14.3, EventsPerSec: 7e7, AllocsPerOp: 0},
		}, 0, "no regressions"},
		{"allocs increase", []benchEntry{
			{Name: "DumbbellSteadyState", NsPerOp: 1.46e+07, EventsPerSec: 6e6, AllocsPerOp: 3000, BytesPerOp: 150000},
			{Name: "SchedulerFire", NsPerOp: 14.3, EventsPerSec: 7e7, AllocsPerOp: 0},
		}, 1, "allocs/op rose"},
		{"allocs within tolerance band", []benchEntry{
			// Arena amortization wiggle: +1% stays inside the 5% band.
			{Name: "DumbbellSteadyState", NsPerOp: 1.46e+07, EventsPerSec: 6e6, AllocsPerOp: 2828, BytesPerOp: 150000},
			{Name: "SchedulerFire", NsPerOp: 14.3, EventsPerSec: 7e7, AllocsPerOp: 0},
		}, 0, "no regressions"},
		{"allocs from zero baseline stay strict", []benchEntry{
			{Name: "DumbbellSteadyState", NsPerOp: 1.46e+07, EventsPerSec: 6e6, AllocsPerOp: 2800, BytesPerOp: 150000},
			// A zero-allocs hot path gaining a single alloc/op must fail
			// regardless of the relative band.
			{Name: "SchedulerFire", NsPerOp: 14.3, EventsPerSec: 7e7, AllocsPerOp: 1},
		}, 1, "allocs/op rose"},
		{"bytes per op regression", []benchEntry{
			{Name: "DumbbellSteadyState", NsPerOp: 1.46e+07, EventsPerSec: 6e6, AllocsPerOp: 2800, BytesPerOp: 170000},
			{Name: "SchedulerFire", NsPerOp: 14.3, EventsPerSec: 7e7, AllocsPerOp: 0},
		}, 1, "bytes/op rose"},
		{"bytes from zero baseline", []benchEntry{
			{Name: "DumbbellSteadyState", NsPerOp: 1.46e+07, EventsPerSec: 6e6, AllocsPerOp: 2800, BytesPerOp: 150000},
			{Name: "SchedulerFire", NsPerOp: 14.3, EventsPerSec: 7e7, AllocsPerOp: 0, BytesPerOp: 600},
		}, 1, "bytes/op rose"},
		{"bytes within absolute slack", []benchEntry{
			{Name: "DumbbellSteadyState", NsPerOp: 1.46e+07, EventsPerSec: 6e6, AllocsPerOp: 2800, BytesPerOp: 150000},
			// Amortized one-time growth on a tiny baseline: inside the
			// byteSlack floor even though far beyond the relative band.
			{Name: "SchedulerFire", NsPerOp: 14.3, EventsPerSec: 7e7, AllocsPerOp: 0, BytesPerOp: 64},
		}, 0, "no regressions"},
		{"new benchmark not gated", []benchEntry{
			{Name: "DumbbellSteadyState", NsPerOp: 1.46e+07, EventsPerSec: 6e6, AllocsPerOp: 2800},
			{Name: "BrandNewBench", EventsPerSec: 1, AllocsPerOp: 999999},
		}, 0, "new benchmark"},
		{"both gates on one benchmark", []benchEntry{
			{Name: "DumbbellSteadyState", NsPerOp: 2.92e+07, EventsPerSec: 3e6, AllocsPerOp: 3000},
			{Name: "SchedulerFire", NsPerOp: 14.3, EventsPerSec: 7e7, AllocsPerOp: 0},
		}, 1, "speed fell >30%; allocs/op rose 2800 -> 3000"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nu := writeBenchFile(t, dir, strings.ReplaceAll(tc.name, " ", "_")+".json", tc.entries)
			var out, errb bytes.Buffer
			code := run([]string{"-benchcmp", old, nu}, &out, &errb)
			if code != tc.want {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s",
					code, tc.want, out.String(), errb.String())
			}
			if !strings.Contains(out.String(), tc.output) {
				t.Fatalf("output missing %q:\n%s", tc.output, out.String())
			}
		})
	}
}

// Benchmarks present only in the NEW report must be called out in an
// explicit end-of-report summary naming each body — not just one line
// lost in the per-benchmark noise — while still never gating.
func TestBenchCmpNewOnlySummary(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchFile(t, dir, "old.json", []benchEntry{
		{Name: "DumbbellSteadyState", EventsPerSec: 6e6, AllocsPerOp: 2800},
	})
	nu := writeBenchFile(t, dir, "new.json", []benchEntry{
		{Name: "DumbbellSteadyState", EventsPerSec: 6e6, AllocsPerOp: 2800},
		{Name: "ChurnSteadyState", EventsPerSec: 2e6, AllocsPerOp: 50},
		{Name: "AnotherNewBody", EventsPerSec: 1e6, AllocsPerOp: 0},
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-benchcmp", old, nu}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb.String())
	}
	got := out.String()
	want := "2 new benchmark(s) without a baseline in " + old +
		" (recorded, not gated): AnotherNewBody, ChurnSteadyState"
	if !strings.Contains(got, want) {
		t.Fatalf("output missing new-only summary %q:\n%s", want, got)
	}
	if !strings.Contains(got, "no regressions") {
		t.Fatalf("new-only bodies must not gate:\n%s", got)
	}
}

func TestBenchCmpErrors(t *testing.T) {
	dir := t.TempDir()
	good := writeBenchFile(t, dir, "good.json", []benchEntry{{Name: "A", EventsPerSec: 1}})
	var out, errb bytes.Buffer
	if code := run([]string{"-benchcmp", good}, &out, &errb); code != 2 {
		t.Fatalf("one arg: exit %d", code)
	}
	if code := run([]string{"-benchcmp", filepath.Join(dir, "missing.json"), good}, &out, &errb); code != 1 {
		t.Fatalf("missing baseline: exit %d", code)
	}
	disjoint := writeBenchFile(t, dir, "disjoint.json", []benchEntry{{Name: "B", EventsPerSec: 1}})
	if code := run([]string{"-benchcmp", disjoint, good}, &out, &errb); code != 1 {
		t.Fatalf("no common benchmarks: exit %d", code)
	}
	if code := run([]string{"-benchcmp", "-benchtol", "2", good, good}, &out, &errb); code != 2 {
		t.Fatalf("bad tolerance: exit %d", code)
	}
	if code := run([]string{"-benchcmp", "-benchbytetol", "-0.1", good, good}, &out, &errb); code != 2 {
		t.Fatalf("bad byte tolerance: exit %d", code)
	}
	if code := run([]string{"-benchcmp", "-benchalloctol", "1.5", good, good}, &out, &errb); code != 2 {
		t.Fatalf("bad alloc tolerance: exit %d", code)
	}
}
