package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/perfbench"
	"repro/internal/runner"
)

// Smoke test: -list prints every registered scenario.
func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"fig1", "fig12-15", "claim4", "tableI"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
	// Each line carries the scenario's executor modes: the sharded
	// families advertise all three, the dumbbell figures two.
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "scalechain"):
			if !strings.Contains(line, "serial,parallel,sharded") {
				t.Fatalf("scalechain should list sharded mode: %q", line)
			}
		case strings.HasPrefix(line, "fig1 "):
			if !strings.Contains(line, "serial,parallel") || strings.Contains(line, "sharded") {
				t.Fatalf("fig1 modes wrong: %q", line)
			}
		}
	}
	// The legacy positional spelling still works.
	var out2 bytes.Buffer
	if code := run([]string{"list"}, &out2, &errb); code != 0 || out2.String() != out.String() {
		t.Fatalf("positional list differs (exit %d)", code)
	}
}

// Smoke test: -run executes a small scenario end to end, serially and
// in parallel, with identical TSV.
func TestRunScenario(t *testing.T) {
	var serial, par, errb bytes.Buffer
	if code := run([]string{"-run", "fig1,tableI"}, &serial, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(serial.String(), "# fig1") || !strings.Contains(serial.String(), "# tableI") {
		t.Fatalf("missing table headers:\n%s", serial.String())
	}
	if code := run([]string{"-parallel", "-workers", "4", "-run", "fig1,tableI"}, &par, &errb); code != 0 {
		t.Fatalf("parallel exit %d, stderr: %s", code, errb.String())
	}
	if par.String() != serial.String() {
		t.Fatal("parallel output differs from serial")
	}
	// Positional arguments accept the same comma-separated spelling,
	// with whitespace tolerated.
	var pos bytes.Buffer
	if code := run([]string{"fig1, tableI"}, &pos, &errb); code != 0 {
		t.Fatalf("positional list exit %d, stderr: %s", code, errb.String())
	}
	if pos.String() != serial.String() {
		t.Fatal("positional comma list differs from -run")
	}
}

// Smoke test: -shards routes a sharded-capable scenario through the
// space-parallel engine with TSV byte-identical to the serial run.
func TestRunShardsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded smoke run skipped in -short mode")
	}
	args := []string{"-quick", "-events", "2000", "-simfactor", "0.04", "-run", "parkinglot"}
	var serial, sharded, errb bytes.Buffer
	if code := run(args, &serial, &errb); code != 0 {
		t.Fatalf("serial exit %d, stderr: %s", code, errb.String())
	}
	if code := run(append([]string{"-shards", "3"}, args...), &sharded, &errb); code != 0 {
		t.Fatalf("sharded exit %d, stderr: %s", code, errb.String())
	}
	if sharded.String() != serial.String() {
		t.Fatal("-shards 3 output differs from serial")
	}
}

// The -benchrun filter: unit coverage of the name resolution, plus an
// end-to-end smoke run of one cheap benchmark.
func TestSelectBenchmarks(t *testing.T) {
	all, err := selectBenchmarks("")
	if err != nil || len(all) != len(perfbench.Suite) {
		t.Fatalf("empty filter: %v, %d of %d benchmarks", err, len(all), len(perfbench.Suite))
	}
	sel, err := selectBenchmarks(" SchedulerDeepQueue8K , SchedulerFire ")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "SchedulerFire" || sel[1].Name != "SchedulerDeepQueue8K" {
		t.Fatalf("filter selected wrong set: %v", sel)
	}
	if _, err := selectBenchmarks("NoSuchBench"); err == nil {
		t.Fatal("unknown benchmark name not rejected")
	}
	if _, err := selectBenchmarks(" , "); err == nil {
		t.Fatal("blank filter list not rejected")
	}
}

func TestBenchRunFilterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark smoke run skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, errb bytes.Buffer
	if code := run([]string{"-bench", "-benchrun", "SchedulerFire", "-benchout", out}, &stdout, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "SchedulerFire" {
		t.Fatalf("filtered report holds %+v, want exactly SchedulerFire", rep.Benchmarks)
	}
	if code := run([]string{"-bench", "-benchrun", "NoSuchBench", "-benchout", out}, &stdout, &errb); code != 2 {
		t.Fatalf("unknown benchmark name: exit %d", code)
	}
	if !strings.Contains(errb.String(), "NoSuchBench") {
		t.Fatalf("stderr: %s", errb.String())
	}
}

// -deadline on a healthy run: the watchdog stays quiet, the output is
// byte-identical to the plain serial run, exit 0.
func TestDeadlineQuietOnHealthyRun(t *testing.T) {
	var plain, hardened, errb bytes.Buffer
	if code := run([]string{"-run", "fig1,tableI"}, &plain, &errb); code != 0 {
		t.Fatalf("plain exit %d, stderr: %s", code, errb.String())
	}
	if code := run([]string{"-deadline", "10m", "-run", "fig1,tableI"}, &hardened, &errb); code != 0 {
		t.Fatalf("hardened exit %d, stderr: %s", code, errb.String())
	}
	if hardened.String() != plain.String() {
		t.Fatal("-deadline output differs from plain run")
	}
}

// -deadline with an impossible budget: every job is abandoned, the
// failure manifest lands on stderr with the job seeds, the table
// headers still print (empty tables), and the exit code turns 1 —
// partial-results mode, not a crash.
func TestDeadlineAbandonsAndReports(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-events", "500", "-simfactor", "0.02", "-deadline", "1ns", "-run", "hetrtt"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	for _, want := range []string{"jobs failed", "seed", "watchdog"} {
		if !strings.Contains(errb.String(), want) {
			t.Fatalf("stderr missing %q:\n%s", want, errb.String())
		}
	}
	if !strings.Contains(out.String(), "# hetrtt") {
		t.Fatalf("surviving (empty) table header not printed:\n%s", out.String())
	}
}

// -seed filters a batch to the jobs carrying that seed: claim4's jobs
// all carry seed 7, so -seed 7 reproduces the full table and a seed no
// job carries yields just the header.
func TestSeedFilter(t *testing.T) {
	var full, same, none, errb bytes.Buffer
	if code := run([]string{"-run", "claim4"}, &full, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if code := run([]string{"-seed", "7", "-run", "claim4"}, &same, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if same.String() != full.String() {
		t.Fatalf("-seed 7 differs from the full run:\n%s\nvs\n%s", same.String(), full.String())
	}
	if code := run([]string{"-seed", "424242", "-run", "claim4"}, &none, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(none.String(), "# claim4") || strings.Count(none.String(), "\n") >= strings.Count(full.String(), "\n") {
		t.Fatalf("-seed with no matching jobs should print an empty table:\n%s", none.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "no-such-figure"}, &out, &errb); code != 2 {
		t.Fatalf("unknown scenario: exit %d", code)
	}
	if !strings.Contains(errb.String(), "no-such-figure") {
		t.Fatalf("stderr: %s", errb.String())
	}
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("no args: exit %d", code)
	}
}

// Flag values no run can use exit 2 with a one-line message before any
// scenario runs: nothing reaches stdout and no trace file is written.
func TestFlagValidation(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "events.json")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"shards", []string{"-shards", "-2"}},
		{"epochs", []string{"-epochs", "-1"}},
		{"workers", []string{"-parallel", "-workers", "-3"}},
		{"retries", []string{"-retries", "-1"}},
		{"events", []string{"-events", "-5"}},
		{"deadline", []string{"-deadline", "-1s"}},
		{"checkpoint-every", []string{"-checkpoint-every", "-10", "-checkpoint-dir", t.TempDir()}},
		{"simfactor", []string{"-simfactor", "1.5"}},
		{"tracecap", []string{"-trace", traceOut, "-tracecap", "0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(append(tc.args, "fig1"), &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
			}
			if out.Len() != 0 {
				t.Fatalf("a scenario ran:\n%s", out.String())
			}
			msg := errb.String()
			if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-"+tc.name) {
				t.Fatalf("want one line naming -%s, got %q", tc.name, msg)
			}
		})
	}
	if _, err := os.Stat(traceOut); !os.IsNotExist(err) {
		t.Fatalf("rejected -trace run left a trace file (stat: %v)", err)
	}
}

// -checkpoint-dir need not exist: ebrc creates it once before any job
// runs, and every job's snapshot lands in it.
func TestCheckpointDirCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "new", "ckpt")
	var out, errb bytes.Buffer
	args := []string{"-quick", "-events", "2000", "-simfactor", "0.04",
		"-checkpoint-every", "2", "-checkpoint-dir", dir, "-run", "parkinglot"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, errb.String())
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot in the created directory %s (err %v)", dir, err)
	}
}

// A resume this binary cannot read ends the run with exit 2 and one
// stderr line naming the job, the file and the failed check — no stack,
// and under -retries 2 no retry (the line is the input error itself,
// where a retried failure would report its attempts). A real panic
// mid-run still exits 1 with its stack.
func TestUnreadableResume(t *testing.T) {
	base := []string{"-quick", "-events", "2000", "-simfactor", "0.04", "-run", "parkinglot"}
	saved := t.TempDir()
	var out, errb bytes.Buffer
	if code := run(append([]string{"-checkpoint-every", "2", "-checkpoint-dir", saved}, base...), &out, &errb); code != 0 {
		t.Fatalf("checkpointed run: exit %d (stderr: %s)", code, errb.String())
	}
	snaps, err := filepath.Glob(filepath.Join(saved, "*.ckpt"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots in %s (err %v)", saved, err)
	}
	// spoiled copies every snapshot into a new directory and rewrites
	// the first job's through spoil.
	spoiled := func(spoil func([]byte) []byte) (dir, file string) {
		dir = t.TempDir()
		for i, src := range snaps {
			b, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				b = spoil(b)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir, filepath.Join(dir, filepath.Base(snaps[0]))
	}
	version6, v6file := spoiled(func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], 6) // the codec version follows the 8-byte magic
		return b
	})
	truncated, truncFile := spoiled(func(b []byte) []byte { return b[:len(b)/2] })
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"codec version 6", []string{"-resume", version6}, []string{v6file, "codec version 6, this binary reads version 7"}},
		{"digest mismatch", []string{"-resume", saved, "-simfactor", "0.05"}, []string{snaps[0], "config digest mismatch"}},
		{"truncated file", []string{"-resume", truncated}, []string{truncFile, "checksum mismatch"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(append(append([]string{"-retries", "2"}, base...), tc.args...), &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
			}
			msg := errb.String()
			if strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") || strings.Contains(msg, "attempts") {
				t.Fatalf("want one line, no stack and no retry, got %q", msg)
			}
			for _, want := range append([]string{"job 0 (parkinglot"}, tc.want...) {
				if !strings.Contains(msg, want) {
					t.Fatalf("stderr %q does not name %q", msg, want)
				}
			}
		})
	}

	// A directory where the first job's snapshot belongs makes its
	// warmup save fail, which panics mid-run.
	blocked := t.TempDir()
	if err := os.MkdirAll(filepath.Join(blocked, filepath.Base(snaps[0]), "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run(append([]string{"-checkpoint-every", "2", "-checkpoint-dir", blocked}, base...), &out, &errb); code != 1 {
		t.Fatalf("planted panic: exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	for _, want := range []string{"panicked", "writing checkpoint", "goroutine"} {
		if !strings.Contains(errb.String(), want) {
			t.Fatalf("planted panic: stderr missing %q:\n%s", want, errb.String())
		}
	}
}

// The observability flags: -metrics and -epochs append their blocks
// after the tables and the whole stream — tables plus capture — stays
// byte-identical between the serial engine and a sharded run; -trace
// writes a parseable Chrome trace_event JSON array. A plain run stays
// capture-free.
func TestObservabilityFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("observability smoke run skipped in -short mode")
	}
	traceOut := filepath.Join(t.TempDir(), "events.json")
	args := []string{"-quick", "-events", "2000", "-simfactor", "0.04",
		"-metrics", "-epochs", "3", "-trace", traceOut, "-run", "parkinglot"}
	var serial, sharded, errb bytes.Buffer
	if code := run(args, &serial, &errb); code != 0 {
		t.Fatalf("serial exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"# metrics parkinglot", "# epochs parkinglot",
		"des.events_fired", "net.forwarded", "tfrc.loss_events"} {
		if !strings.Contains(serial.String(), want) {
			t.Fatalf("capture block missing %q:\n%s", want, serial.String())
		}
	}
	if code := run(append([]string{"-shards", "3"}, args...), &sharded, &errb); code != 0 {
		t.Fatalf("sharded exit %d, stderr: %s", code, errb.String())
	}
	if sharded.String() != serial.String() {
		t.Fatal("-shards 3 observed output differs from serial")
	}

	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace file is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace file holds no events")
	}
	if name, _ := events[0]["name"].(string); name != "process_name" {
		t.Fatalf("trace should open with process metadata, got %v", events[0])
	}

	// Without the flags the stream carries no capture blocks.
	var plain bytes.Buffer
	if code := run([]string{"-quick", "-events", "2000", "-simfactor", "0.04",
		"-run", "parkinglot"}, &plain, &errb); code != 0 {
		t.Fatalf("plain exit %d, stderr: %s", code, errb.String())
	}
	if strings.Contains(plain.String(), "# metrics") || strings.Contains(plain.String(), "# epochs") {
		t.Fatalf("plain run leaked capture blocks:\n%s", plain.String())
	}
}

// -progress reports one "[k/n] job" line on stderr per job, counting up
// to each batch's size, and leaves stdout byte-identical to the same
// run without the flag.
func TestProgressFlag(t *testing.T) {
	var plain, progressed, errb bytes.Buffer
	if code := run([]string{"-run", "fig1,claim4"}, &plain, &errb); code != 0 {
		t.Fatalf("plain exit %d, stderr: %s", code, errb.String())
	}
	errb.Reset()
	if code := run([]string{"-progress", "-run", "fig1,claim4"}, &progressed, &errb); code != 0 {
		t.Fatalf("-progress exit %d, stderr: %s", code, errb.String())
	}
	if progressed.String() != plain.String() {
		t.Fatal("-progress changed stdout")
	}
	var want []string
	for _, name := range []string{"fig1", "claim4"} {
		s, _ := experiments.Lookup(name)
		jobs, _ := s.Plan(experiments.Full)
		for k, j := range jobs {
			want = append(want, fmt.Sprintf("ebrc: [%d/%d] %s", k+1, len(jobs), j.Name))
		}
	}
	if got := strings.Split(strings.TrimSuffix(errb.String(), "\n"), "\n"); !slices.Equal(got, want) {
		t.Fatalf("progress lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// -expvar serves the live surface on the address it names on stderr:
// after a -parallel run the "sim" var's pool entry reports the last
// batch finished (Done == Total), and stdout matches the run without
// the flag. The endpoint listens on loopback only.
func TestExpvarFlag(t *testing.T) {
	var plain, served, errb bytes.Buffer
	args := []string{"-parallel", "-run", "fig1,claim4"}
	if code := run(args, &plain, &errb); code != 0 {
		t.Fatalf("plain exit %d, stderr: %s", code, errb.String())
	}
	errb.Reset()
	if code := run(append([]string{"-expvar", "127.0.0.1:0"}, args...), &served, &errb); code != 0 {
		t.Fatalf("-expvar exit %d, stderr: %s", code, errb.String())
	}
	if served.String() != plain.String() {
		t.Fatal("-expvar changed stdout")
	}
	m := regexp.MustCompile(`live introspection at (http://127\.0\.0\.1:\d+/debug/vars)`).FindStringSubmatch(errb.String())
	if m == nil {
		t.Fatalf("stderr names no bound address: %s", errb.String())
	}
	resp, err := http.Get(m[1])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Sim struct {
			Pool *runner.PoolSnapshot `json:"pool"`
		} `json:"sim"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars does not decode: %v", err)
	}
	p := vars.Sim.Pool
	if p == nil || p.Total == 0 || p.Done != p.Total {
		t.Fatalf("sim.pool = %+v, want a finished batch", p)
	}
}
