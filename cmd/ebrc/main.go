// Command ebrc regenerates the data behind every figure of the paper's
// evaluation section as TSV on stdout, driven by the declarative
// scenario registry in internal/experiments and executed by the
// internal/runner engine — serially by default, or on a worker pool
// with -parallel (byte-identical output either way).
//
// Usage:
//
//	ebrc [-quick] [-parallel] [-shards K] [-events N] [-simfactor F] [-deadline D] [-retries N] [-seed N] <scenario> [...]
//	ebrc [-metrics] [-epochs N] [-trace FILE [-tracecap N]] [-expvar ADDR] <scenario> [...]
//	ebrc [-checkpoint-every T -checkpoint-dir D] [-resume D] <scenario> [...]
//	ebrc -list
//	ebrc -run fig5,fig7
//	ebrc all
//	ebrc -bench [-benchid N] [-benchout FILE] [-benchrun A,B,...]
//	ebrc -benchcmp [-benchtol F] [-benchalloctol F] [-benchbytetol F] OLD.json NEW.json
//
// Scenarios: fig1 fig2 fig3 fig3c fig4 fig5 fig6 fig7 fig8 fig9 fig10
// fig11 fig12-15 fig16 fig17 fig18-19 tableI claim3 claim4, the
// multi-hop topology family parkinglot hetrtt multibneck, the
// routed-reverse-path family revcross ackshare asymrev, the scale-out
// family scalechain, and the fault-injection family linkflap burstloss
// capdrop.
//
// -parallel distributes a scenario's independent jobs across workers;
// -shards K instead splits each single simulation across K domains of
// the space-parallel sharded engine (scenarios that do not support it
// ignore the flag). The two compose, and every combination emits
// byte-identical TSV; -list shows each scenario's executor modes.
//
// -deadline D hardens the run with a per-job watchdog: a job exceeding
// D (a Go duration, e.g. 5m) is abandoned and reported with its batch
// index and seed, the remaining jobs keep running, and the surviving
// rows are still printed — the exit code turns 1 and the failure
// manifest goes to stderr. -seed N reruns only the jobs carrying that
// deterministic seed (the number a watchdog or panic report names), so
// a failure reproduces in isolation.
//
// -retries N gives every failing job up to N extra attempts with
// exponential backoff (also hardened mode); with checkpointing on, a
// retried job resumes from its own last snapshot instead of recomputing
// from scratch. -checkpoint-every T writes a deterministic, checksummed
// snapshot of each simulation into -checkpoint-dir every T simulated
// seconds (and at the end of warmup), atomically replacing the previous
// one. -resume D continues each simulation from its snapshot in D —
// byte-identical to the uninterrupted run; a missing snapshot degrades
// to a from-scratch run, and a snapshot whose config digest does not
// match fails loudly naming both digests. Both apply to every
// packet-level scenario (fig5, fig7-fig19 and the multi-hop,
// routed-reverse, scale-out, fault and churn families); the Monte Carlo
// and analytic scenarios have no simulation to snapshot and ignore
// them. Checkpointing is incompatible with -trace (the bounded trace
// rings are not part of a snapshot).
//
// The observability flags ride on internal/obs and are zero-cost when
// absent. -metrics appends a "# metrics <scenario>" TSV block after
// each scenario's tables — engine, per-link and per-protocol-class
// aggregates that are executor-invariant, so the whole stdout stream
// stays byte-identical across serial, -parallel and -shards K. -epochs
// N steps each run's measured window through N boundaries and appends a
// "# epochs <scenario>" block of per-epoch deltas (same byte-identity
// contract; sampling schedules no events and draws no randomness).
// -trace FILE records rare sim events (loss events, no-feedback
// expiries, TCP timeouts, fault transitions, shard handoffs) in bounded
// per-domain rings (-tracecap each) and writes them as Chrome
// trace_event JSON, one viewer process per job, one thread per shard.
// -expvar ADDR serves live wall-clock introspection — worker-pool job
// progress plus per-shard clock/window/barrier-wait snapshots — on the
// standard /debug/vars endpoint; that surface is deliberately kept out
// of the deterministic output.
//
// -bench runs the DES/packet hot-path microbenchmarks and records
// ns/op, allocs/op and events/sec in BENCH_<n>.json, so the simulator's
// performance trajectory is tracked across PRs; -benchrun restricts it
// to a comma-separated subset of the suite (like -run for scenarios).
// -benchcmp compares two such reports and exits non-zero when a
// benchmark present in both regressed (events/sec down more than
// -benchtol, default 30%; allocs/op up more than -benchalloctol,
// default 5%, with zero-allocs baselines staying zero-tolerance; or
// bytes/op up more than -benchbytetol, default 10%, plus a small
// absolute slack) — the gate CI runs against the committed baseline.
// -cpuprofile and -memprofile write pprof profiles of whatever work
// the invocation did.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
)

// seedFilterExec restricts a batch to the jobs carrying one seed: the
// other slots come back nil, which every scenario fold now skips — the
// output is exactly the filtered jobs' rows. This is the reproduction
// path for watchdog and panic reports, which name the failing seed.
type seedFilterExec struct {
	inner runner.Executor
	seed  uint64
}

func (f seedFilterExec) Execute(ctx context.Context, jobs []runner.Job) ([]any, error) {
	var sub []runner.Job
	var idx []int
	for i, j := range jobs {
		if j.Seed == f.seed {
			sub = append(sub, j)
			idx = append(idx, i)
		}
	}
	results := make([]any, len(jobs))
	if len(sub) == 0 {
		return results, nil
	}
	res, err := f.inner.Execute(ctx, sub)
	for k, i := range idx {
		if k < len(res) {
			results[i] = res[k]
		}
	}
	return results, err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebrc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "use the scaled-down Quick sizing")
	events := fs.Int("events", 0, "override the Monte Carlo event budget")
	simFactor := fs.Float64("simfactor", 0, "override the simulation duration factor (0..1]")
	parallel := fs.Bool("parallel", false, "run each scenario's jobs on a worker pool")
	workers := fs.Int("workers", 0, "worker count for -parallel (0 = NumCPU)")
	shards := fs.Int("shards", 0, "split each simulation across K shards (scenarios with sharded mode; 0/1 = serial engine)")
	list := fs.Bool("list", false, "list the registered scenarios and exit")
	runNames := fs.String("run", "", "comma-separated scenarios to run")
	progress := fs.Bool("progress", false, "report per-job progress on stderr")
	deadline := fs.Duration("deadline", 0, "per-job watchdog deadline (hardened mode: partial results + failure manifest; 0 = off)")
	retries := fs.Int("retries", 0, "extra attempts for failed jobs, with exponential backoff (hardened mode; resumes from checkpoints when -checkpoint-every is on)")
	ckptEvery := fs.Float64("checkpoint-every", 0, "write a deterministic snapshot of every simulation each N simulated seconds (needs -checkpoint-dir; packet-level scenarios: fig5, fig7-fig19, parkinglot, hetrtt, multibneck, revcross, ackshare, asymrev, scalechain, linkflap, burstloss, capdrop, flashcrowd, webmice, surge; the others ignore it)")
	ckptDir := fs.String("checkpoint-dir", "", "directory for -checkpoint-every snapshots (one file per job, atomically replaced)")
	resumeDir := fs.String("resume", "", "resume each simulation from its snapshot in this directory (missing snapshot = from-scratch run; config mismatch = hard error; the packet-level scenarios -checkpoint-every names)")
	seedOnly := fs.Uint64("seed", 0, "run only the jobs with this deterministic seed (0 = all)")
	metrics := fs.Bool("metrics", false, "append each scenario's deterministic metrics table (byte-identical across executors)")
	epochs := fs.Int("epochs", 0, "split each run's measured window into N epochs and append per-epoch telemetry")
	traceFile := fs.String("trace", "", "record sim events and write them as Chrome trace_event JSON to this file")
	traceCap := fs.Int("tracecap", 4096, "per-domain event-ring capacity for -trace (older events overwritten beyond it)")
	expvarAddr := fs.String("expvar", "", "serve live run introspection (expvar /debug/vars) on this address, e.g. 127.0.0.1:8125")
	bench := fs.Bool("bench", false, "run the hot-path microbenchmarks and write BENCH_<n>.json")
	benchID := fs.Int("benchid", 0, "PR id for the -bench file name (0 = scratch BENCH_local.json)")
	benchOut := fs.String("benchout", "", "explicit output path for -bench (default BENCH_<benchid>.json)")
	benchRun := fs.String("benchrun", "", "comma-separated benchmark names for -bench (default: the whole suite)")
	benchCmp := fs.Bool("benchcmp", false, "compare two BENCH json reports (args: OLD NEW); exit 1 on regression")
	benchTol := fs.Float64("benchtol", 0.30, "events/sec regression fraction -benchcmp tolerates")
	benchAllocTol := fs.Float64("benchalloctol", 0.05, "allocs/op growth fraction -benchcmp tolerates (0 baselines stay strict)")
	benchByteTol := fs.Float64("benchbytetol", 0.10, "bytes/op growth fraction -benchcmp tolerates")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ebrc [flags] <scenario> [...]\n")
		fmt.Fprintf(stderr, "       ebrc -list | -run <scenario>[,...] | all | -bench | -benchcmp OLD NEW\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Values no run can use are rejected before anything starts, rather
	// than silently ignored (a negative count, a factor outside (0..1])
	// or turned into an empty artifact (-trace with no ring).
	for _, f := range []struct {
		name string
		bad  bool
	}{
		{"shards", *shards < 0}, {"epochs", *epochs < 0}, {"workers", *workers < 0},
		{"retries", *retries < 0}, {"events", *events < 0}, {"deadline", *deadline < 0},
		{"checkpoint-every", *ckptEvery < 0},
	} {
		if f.bad {
			fmt.Fprintf(stderr, "ebrc: -%s must not be negative\n", f.name)
			return 2
		}
	}
	if *simFactor < 0 || *simFactor > 1 {
		fmt.Fprintf(stderr, "ebrc: -simfactor %g outside (0..1]\n", *simFactor)
		return 2
	}
	if *traceFile != "" && *traceCap <= 0 {
		fmt.Fprintf(stderr, "ebrc: -trace needs a positive -tracecap, got %d\n", *traceCap)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "ebrc: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "ebrc: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "ebrc: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "ebrc: %v\n", err)
			}
		}()
	}

	// Observability is configured before the bench dispatch on purpose:
	// `ebrc -bench -metrics` runs the same suite bodies with the capture
	// enabled, which is how CI bounds the enabled-mode overhead.
	experiments.Observe = experiments.ObserveOptions{
		Metrics: *metrics,
		Epochs:  *epochs,
		Live:    *expvarAddr != "",
	}
	if *traceFile != "" {
		experiments.Observe.TraceCap = *traceCap
	}
	if *ckptEvery > 0 && *ckptDir == "" {
		fmt.Fprintf(stderr, "ebrc: -checkpoint-every needs -checkpoint-dir\n")
		return 2
	}
	if (*ckptEvery > 0 || *resumeDir != "") && *traceFile != "" {
		// The bounded trace rings are not part of a snapshot, so a resumed
		// run could not reproduce the uninterrupted trace stream.
		fmt.Fprintf(stderr, "ebrc: -checkpoint-every/-resume and -trace are incompatible\n")
		return 2
	}
	if *ckptEvery > 0 {
		// Saves write into the directory but do not create it.
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "ebrc: -checkpoint-dir: %v\n", err)
			return 1
		}
	}
	experiments.Checkpoint = experiments.CheckpointOptions{
		Every:  *ckptEvery,
		Dir:    *ckptDir,
		Resume: *resumeDir,
	}
	if *expvarAddr != "" {
		addr, err := obs.ServeLive(*expvarAddr)
		if err != nil {
			fmt.Fprintf(stderr, "ebrc: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "ebrc: live introspection at http://%s/debug/vars\n", addr)
	}

	if *bench {
		return runBenchSuite(*benchID, *benchOut, *benchRun, stdout, stderr)
	}
	if *benchCmp {
		if fs.NArg() != 2 {
			fmt.Fprintf(stderr, "ebrc: -benchcmp needs exactly two report paths (OLD NEW)\n")
			return 2
		}
		return runBenchCmp(fs.Arg(0), fs.Arg(1), *benchTol, *benchAllocTol, *benchByteTol, stdout, stderr)
	}

	if *list || (fs.NArg() > 0 && fs.Arg(0) == "list") {
		for _, s := range experiments.Scenarios() {
			fmt.Fprintf(stdout, "%-10s %-24s %s\n", s.Name, s.Modes(), s.Note)
		}
		return 0
	}

	// Scenario names come from the positional arguments and the -run
	// flag alike; both accept comma-separated lists ("ebrc fig5,fig7").
	var names []string
	for _, arg := range append(fs.Args(), *runNames) {
		for _, n := range strings.Split(arg, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	if len(names) == 0 {
		fs.Usage()
		return 2
	}
	if len(names) == 1 && names[0] == "all" {
		names = experiments.ScenarioNames()
	}

	sz := experiments.Full
	if *quick {
		sz = experiments.Quick
	}
	if *events > 0 {
		sz.Events = *events
	}
	if *simFactor > 0 {
		sz.SimFactor = *simFactor
	}
	if *shards > 0 {
		sz.Shards = *shards
	}

	onProgress := func(p runner.Progress) {
		fmt.Fprintf(stderr, "ebrc: [%d/%d] %s\n", p.Done, p.Total, p.Name)
	}
	var ex runner.Executor = runner.Serial{}
	switch {
	case *deadline > 0 || *retries > 0:
		// The watchdog and the retry budget both need the pool's per-job
		// machinery even for a "serial" run: one worker keeps serial
		// semantics, either flag turns on hardened mode (partial results
		// + failure manifest, retried jobs resuming from checkpoints).
		w := 1
		if *parallel {
			w = *workers
			if w <= 0 {
				w = runtime.NumCPU()
			}
		}
		pool := &runner.Pool{Workers: w, JobDeadline: *deadline, Retries: *retries}
		if *progress {
			pool.OnProgress = onProgress
		}
		ex = pool
	case *parallel:
		pool := runner.NewPool(*workers)
		if *progress {
			pool.OnProgress = onProgress
		}
		ex = pool
	case *progress:
		ex = runner.Serial{OnProgress: onProgress}
	}
	if *expvarAddr != "" {
		if p, ok := ex.(*runner.Pool); ok {
			obs.PublishLive("pool", func() any { return p.Snapshot() })
		}
	}
	if *seedOnly != 0 {
		ex = seedFilterExec{inner: ex, seed: *seedOnly}
	}

	ctx := context.Background()
	exit := 0
	var traces []obs.JobTrace
	var dropped int64
	for _, name := range names {
		s, ok := experiments.Lookup(name)
		if !ok {
			fmt.Fprintf(stderr, "ebrc: unknown scenario %q (try: ebrc -list)\n", name)
			return 2
		}
		tables, so, err := s.RunObserved(ctx, sz, ex)
		if err != nil {
			// Hardened mode folds the survivors even when jobs failed:
			// print what completed, report the manifest, keep going so a
			// long multi-scenario sweep salvages everything it can.
			fmt.Fprintf(stderr, "ebrc: %v\n", err)
			if tables == nil {
				return 1
			}
			exit = 1
		}
		for _, t := range tables {
			if err := t.WriteTSV(stdout); err != nil {
				fmt.Fprintf(stderr, "ebrc: %v\n", err)
				return 1
			}
			fmt.Fprintln(stdout)
		}
		if so == nil {
			continue
		}
		// The capture blocks join the tables on stdout — they hold only
		// executor-invariant quantities, so the whole stream stays
		// byte-identical across serial, -parallel and -shards K.
		if so.Metrics != nil && so.Metrics.Len() > 0 {
			fmt.Fprintf(stdout, "# metrics %s\n", name)
			if err := so.Metrics.WriteTSV(stdout); err != nil {
				fmt.Fprintf(stderr, "ebrc: %v\n", err)
				return 1
			}
			fmt.Fprintln(stdout)
		}
		if so.Epochs != nil {
			fmt.Fprintf(stdout, "# epochs %s\n", name)
			if err := so.Epochs.WriteTSV(stdout); err != nil {
				fmt.Fprintf(stderr, "ebrc: %v\n", err)
				return 1
			}
			fmt.Fprintln(stdout)
		}
		for _, jt := range so.Jobs {
			jt.Name = name + "/" + jt.Name
			jt.Pid = len(traces)
			traces = append(traces, jt)
		}
		dropped += so.Dropped
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "ebrc: %v\n", err)
			return 1
		}
		werr := obs.WriteChromeTrace(f, traces)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "ebrc: %v\n", werr)
			return 1
		}
		n := 0
		for _, jt := range traces {
			n += len(jt.Events)
		}
		fmt.Fprintf(stderr, "ebrc: wrote %d trace events to %s (%d overwritten by the ring bound)\n",
			n, *traceFile, dropped)
	}
	return exit
}
