// Command ebrcbench is the repository benchmark. It runs one workload's
// job set (paper, faultchurn or sharded; see workload.go) through the
// simulator's public entry points and prints the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1) as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Every measured pass runs in a child process of its own, so each one
// starts cold, as an ebrc invocation does, and its peak resident set
// is the child's alone. Run it from the repository root:
//
//	bash ebrcbench/run.sh --workload paper --seed 1 --seconds 32 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// runBudget bounds a whole invocation: twice the sampling window plus
// room for the set-up passes and a pass that overruns it. Child
// processes still running when it expires are killed.
func runBudget(seconds float64) time.Duration {
	return time.Duration(2*seconds*float64(time.Second)) + 2*time.Minute
}

// setupReps is the fewest set-up-only child processes behind setup_s.
// Each builds and tears down the job set at least setupRounds times and
// for at least setupTime: one cold round, then rounds on the pooled
// arenas a sweep reuses.
const (
	setupReps   = 5
	setupRounds = 10
	setupTime   = time.Second
)

// minSamples is the fewest untraced passes behind wall_s and
// peak_rss_mb, even when they overrun -seconds.
const minSamples = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	horizon  float64
	child    string
	expect   string
	golden   bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("ebrcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper, faultchurn or sharded")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 32, "how long to keep sampling untraced passes, in seconds")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/ebrcbench-out", "directory for span files and snapshots")
	fs.Float64Var(&o.horizon, "horizon", 1, "scale applied to every simulated duration")
	fs.StringVar(&o.child, "child", "", "run one pass (setup, wall or trace) and print its report")
	fs.StringVar(&o.expect, "expect", "", "untraced report a traced pass checks its jobs against")
	fs.BoolVar(&o.golden, "write-golden", false, "record this seed's job digests as the golden digests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "ebrcbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = *trace == 1
	if o.horizon <= 0 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "ebrcbench: -horizon and -seconds must be positive")
		return 2
	}
	if _, err := buildWorkload(o.workload, o.seed, o.horizon, false); err != nil {
		fmt.Fprintln(stderr, "ebrcbench:", err)
		return 2
	}
	if o.golden && (o.seed != defaultSeed || o.horizon != 1 || o.trace) {
		fmt.Fprintf(stderr, "ebrcbench: -write-golden needs -seed %d, -horizon 1 and -trace 0\n", defaultSeed)
		return 2
	}
	var err error
	if o.child != "" {
		err = runChild(o, stdout)
	} else {
		err = orchestrate(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "ebrcbench:", err)
		return 1
	}
	return 0
}

// runChild executes one pass in this process and prints its report.
func runChild(o options, stdout io.Writer) error {
	w, err := buildWorkload(o.workload, o.seed, o.horizon, o.child == "setup")
	if err != nil {
		return err
	}
	ckptDir := filepath.Join(o.out, fmt.Sprintf("ckpt-%d", os.Getpid()))
	defer os.RemoveAll(ckptDir)
	var rep *passReport
	switch o.child {
	case "setup":
		rep, err = runSetup(w, ckptDir)
	case "wall":
		rep, err = runUntraced(w, ckptDir)
	case "trace":
		var expect passReport
		if err := readJSON(o.expect, &expect); err != nil {
			return fmt.Errorf("reading expected results: %w", err)
		}
		spans := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		rep, err = runTraced(w, &expect, spans)
	default:
		return fmt.Errorf("unknown pass %q", o.child)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// sample is one child pass as the parent saw it.
type sample struct {
	rep    *passReport
	rssKiB int64
}

// spawn runs one pass in a child process and waits for it.
func spawn(ctx context.Context, o options, pass string, extra ...string) (*sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", pass, "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-out", o.out,
		"-horizon", strconv.FormatFloat(o.horizon, 'g', -1, 64)}
	args = append(args, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s pass: %w", pass, err)
	}
	var rep passReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s pass: bad report: %w", pass, err)
	}
	s := &sample{rep: &rep}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssKiB = ru.Maxrss
	}
	return s, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// orchestrate runs the measured passes in child processes, checks every
// job's output, and prints the result line.
func orchestrate(o options, stdout, stderr io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget(o.seconds))
	defer cancel()
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	chk, err := newChecker(o)
	if err != nil {
		return err
	}
	var res result
	if o.trace {
		res, err = measureTraced(ctx, o, chk)
	} else {
		res, err = measureUntraced(ctx, o, chk, stderr)
	}
	if err != nil {
		return err
	}
	if o.golden {
		if err := chk.writeGolden(); err != nil {
			return err
		}
	}
	res.Correct = chk.failed == 0
	res.Attempted, res.Failed = chk.attempted, chk.failed
	printTable(stderr, o, res.Metrics)
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return errors.New(chk.summary())
	}
	return nil
}

// budget paces the measured passes: another pass starts only while one
// as long as the longest so far still ends within -seconds.
type budget struct {
	deadline, last time.Time
	longest        time.Duration
	laps           int
}

func newBudget(seconds float64) *budget {
	now := time.Now()
	return &budget{deadline: now.Add(time.Duration(seconds * float64(time.Second))), last: now}
}

func (b *budget) lap() {
	now := time.Now()
	if d := now.Sub(b.last); d > b.longest {
		b.longest = d
	}
	b.last = now
	b.laps++
}

func (b *budget) fits() bool { return !time.Now().Add(b.longest).After(b.deadline) }

// describe prints a metric's samples: count, median, quartiles, range.
func describe(w io.Writer, name string, v []float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	fmt.Fprintf(w, "# %s: n=%d median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g\n",
		name, len(s), median(s), q(0.25), q(0.75), s[0], s[len(s)-1])
}

// measureUntraced samples cold passes for -seconds, each lap one
// set-up-only child and one untraced child, then tops the set-up
// children up to setupReps. Interleaved, setup_s sees the same spell of
// host load as wall_s. The end-to-end metrics are medians over the
// children.
func measureUntraced(ctx context.Context, o options, chk *checker, stderr io.Writer) (result, error) {
	var setup, walls, rss []float64
	setupPass := func() error {
		s, err := spawn(ctx, o, "setup")
		if err != nil {
			return err
		}
		chk.check("setup", s.rep)
		setup = append(setup, s.rep.Wall)
		return nil
	}
	for b := newBudget(o.seconds); len(walls) < minSamples || b.fits(); b.lap() {
		if err := setupPass(); err != nil {
			return result{}, err
		}
		s, err := spawn(ctx, o, "wall")
		if err != nil {
			return result{}, err
		}
		chk.check("wall", s.rep)
		walls = append(walls, s.rep.Wall)
		rss = append(rss, float64(s.rssKiB)/1024)
	}
	for len(setup) < setupReps {
		if err := setupPass(); err != nil {
			return result{}, err
		}
	}
	describe(stderr, "setup_s", setup)
	describe(stderr, "wall_s", walls)
	describe(stderr, "peak_rss_mb", rss)
	m := metrics{}
	m.set("wall_s", median(walls))
	m.set("setup_s", median(setup))
	m.set("peak_rss_mb", median(rss))
	m.set("pass_rate", chk.passRate())
	return result{Metrics: m}, nil
}

// measureTraced alternates an untraced and a traced pass for -seconds
// (at least one pair) and reports the per-layer metrics as medians over
// the pairs.
func measureTraced(ctx context.Context, o options, chk *checker) (result, error) {
	per := map[string][]float64{}
	for b := newBudget(o.seconds); b.laps == 0 || b.fits(); b.lap() {
		u, err := spawn(ctx, o, "wall")
		if err != nil {
			return result{}, err
		}
		chk.check("wall", u.rep)
		expect := filepath.Join(o.out, fmt.Sprintf("expect-%d.json", os.Getpid()))
		if err := writeJSON(expect, u.rep); err != nil {
			return result{}, err
		}
		t, err := spawn(ctx, o, "trace", "-expect", expect)
		os.Remove(expect)
		if err != nil {
			return result{}, err
		}
		chk.checkTraced(t.rep)
		for name, v := range layerMetrics(u.rep, t.rep) {
			per[name] = append(per[name], v)
		}
	}
	m := metrics{}
	for _, d := range perLayerMetrics {
		m.set(d.Name, median(per[d.Name]))
	}
	return result{Metrics: m}, nil
}
