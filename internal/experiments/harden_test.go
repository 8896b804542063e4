package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/tfrc"
)

// A hardened pool (JobDeadline set) must degrade, not crash: with an
// impossible deadline every job is abandoned, yet Scenario.Run still
// folds the (empty) tables and surfaces the failures as a
// *runner.Manifest naming each job's index and seed.
func TestHardenedPoolPartialFold(t *testing.T) {
	sz := Sizing{Events: 500, SimFactor: 0.02, Pairs: []int{1}, PairsCap: 1}
	s, ok := Lookup("multibneck")
	if !ok {
		t.Fatal("multibneck not registered")
	}
	pool := &runner.Pool{Workers: 2, JobDeadline: time.Nanosecond}
	tables, _, err := s.Run(context.Background(), sz, pool)
	if err == nil {
		t.Fatal("1ns deadline should fail every job")
	}
	var m *runner.Manifest
	if !errors.As(err, &m) {
		t.Fatalf("error is not a manifest: %v", err)
	}
	jobs, _ := s.Plan(sz)
	if m.Total != len(jobs) || len(m.Failed) != len(jobs) {
		t.Fatalf("manifest %d/%d failed, want %d/%d", len(m.Failed), m.Total, len(jobs), len(jobs))
	}
	if m.Failed[0].Seed == 0 || !strings.Contains(m.Failed[0].Err.Error(), "watchdog") {
		t.Fatalf("manifest entry lacks seed or watchdog cause: %+v", m.Failed[0])
	}
	if len(tables) != 1 || len(tables[0].Rows) != 0 {
		t.Fatalf("partial fold should yield the empty table, got %+v", tables)
	}
	// Give the abandoned job goroutines (tiny sims) time to drain before
	// the test binary exits.
	time.Sleep(200 * time.Millisecond)
}

// With a generous deadline the hardened pool is invisible: byte-
// identical tables, no error.
func TestHardenedPoolQuietOnHealthyRun(t *testing.T) {
	sz := Sizing{Events: 500, SimFactor: 0.02, Pairs: []int{1}, PairsCap: 1}
	serial := renderAll(t, "multibneck", sz, runner.Serial{})
	hardened := renderAll(t, "multibneck", sz, &runner.Pool{Workers: 2, JobDeadline: 10 * time.Minute})
	if !bytes.Equal(serial, hardened) {
		t.Fatalf("hardened pool output differs from serial\nserial:\n%s\nhardened:\n%s", serial, hardened)
	}
}

// A Monte Carlo row is built from several jobs — one per window L in
// fig3, one per formula in fig6 — so a lost job drops its whole row, as
// gridPlan drops a lost packet-level cell's rows, instead of printing
// as a 0 no reader can tell from data. Every other row folds unchanged.
func TestLostMonteCarloJobDropsItsRow(t *testing.T) {
	t.Parallel()
	sz := Sizing{Events: 500}
	for _, tc := range []struct {
		name   string
		plan   PlanFunc
		perRow int // jobs per table row
		lost   int // the job whose result goes missing
	}{
		{"fig3", planFig3(tfrc.SQRT), 5, 7},
		{"fig6", planFig6, 3, 4},
	} {
		jobs, fold := tc.plan(sz)
		results, err := runner.Serial{}.Execute(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		full := fold(results)[0]
		results[tc.lost] = nil
		got := fold(results)[0]
		row := tc.lost / tc.perRow
		want := slices.Delete(slices.Clone(full.Rows), row, row+1)
		if !reflect.DeepEqual(got.Rows, want) {
			t.Errorf("%s: with job %d lost the rows are\n%v\nwant every row but row %d of\n%v",
				tc.name, tc.lost, got.Rows, row, full.Rows)
		}
	}
}
