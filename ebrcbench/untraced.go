package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/tcp"
	"repro/internal/tfrc"
)

// jobResult is one job's outcome in a pass.
type jobResult struct {
	Name string `json:"name"`
	// Digest hashes what the simulation computed: per-flow statistics,
	// class aggregates, the probe, fault and churn figures. It leaves
	// out the event count and the churn pools' bookkeeping, which a
	// change to the engine may alter without altering any result, so
	// it is what the golden digests pin.
	Digest string `json:"digest"`
	// FlowDigest hashes the per-flow TFRC/TCP statistics: the part of
	// the result the traced rebuild reproduces.
	FlowDigest string `json:"flow_digest"`
	// Events is the scheduler's EventsFired; within one revision every
	// pass of a job must fire the same number.
	Events uint64 `json:"events"`
	// Err is set when the job failed: a panic (a leak-ledger violation
	// included) or a resumed run that diverged from the uninterrupted one.
	Err     string  `json:"err,omitempty"`
	Seconds float64 `json:"seconds"`
	// Sharded jobs: the resume run's duration and the snapshots written.
	ResumeSeconds float64 `json:"resume_seconds,omitempty"`
	Snapshots     int     `json:"snapshots,omitempty"`
	SnapshotBytes int64   `json:"snapshot_bytes,omitempty"`
	// Churn totals over the job's arrival classes.
	Arrivals      int64 `json:"arrivals,omitempty"`
	Constructions int64 `json:"constructions,omitempty"`
	Reclaimed     int64 `json:"reclaimed,omitempty"`
}

// passReport is what a child process prints for one pass.
type passReport struct {
	Wall    float64     `json:"wall"`
	Workers int         `json:"workers"`
	Jobs    []jobResult `json:"jobs"`
	// Allocation counters over the pass (runtime.MemStats deltas) and
	// the process's GC CPU fraction at its end.
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCPUFrac  float64 `json:"gc_cpu_frac"`
	// CkptWriteNs and CkptReadNs time checkpoint.WriteFile/ReadFile on
	// the latest real snapshot payload (sharded only).
	CkptWriteNs float64 `json:"ckpt_write_ns,omitempty"`
	CkptReadNs  float64 `json:"ckpt_read_ns,omitempty"`
	// Layer holds the per-layer figures of a traced pass.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// digest hashes values by their %v rendering, which prints every float
// in its shortest exact form.
func digest(vals ...any) string {
	h := fnv.New64a()
	for _, v := range vals {
		fmt.Fprintf(h, "%v|", v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func flowDigest(tf []tfrc.Stats, tc []tcp.Stats) string {
	return digest(tf, tc)
}

func simDigests(r experiments.SimResult) (full, flow string) {
	flow = flowDigest(r.TFRCPerFlow, r.TCPPerFlow)
	return digest(flow, r.TFRC, r.TCP, r.Poisson), flow
}

func topoDigests(r experiments.TopoSimResult) (full, flow string) {
	flow = flowDigest(r.TFRCPerFlow, r.TCPPerFlow)
	vals := []any{flow, r.TFRC, r.TCP, r.Cross, r.BaseRTT, r.FaultDrops, r.FaultOffered,
		r.UnboundedHighWater, r.Recovery}
	for _, c := range r.Churn {
		// Log is a pointer and stays out; the Palm figures derive from
		// it. Constructions and Reclaimed count pool reuse, not results.
		vals = append(vals, c.Name, c.Proto, c.Arrivals, c.Completions,
			c.Peak, c.ActiveAtEnd, c.MeanDuration, c.PalmPop, c.TimePop)
	}
	return digest(vals...), flow
}

// runUntraced executes the workload's job set through the program's
// own entry points (experiments.RunSim/RunTopoSim) on a runner.Pool and
// reports per-job digests and timings. The leak ledger is checked at
// the end of every job. Sharded jobs write snapshots into ckptDir and
// are resumed from their latest one; the resumed result must equal the
// uninterrupted one.
func runUntraced(w *workload, ckptDir string) (*passReport, error) {
	experiments.LeakCheck = true
	if w.ckptEvery > 0 {
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return nil, fmt.Errorf("creating snapshot directory: %w", err)
		}
		experiments.Checkpoint = experiments.CheckpointOptions{Every: w.ckptEvery, Dir: ckptDir}
	}
	results := make([]jobResult, len(w.jobs))
	jobs := make([]runner.Job, len(w.jobs))
	for i, j := range w.jobs {
		jobs[i] = runner.Job{Name: j.name, Run: func(context.Context) any {
			results[i] = runJob(j, w.ckptEvery, ckptDir)
			return nil
		}}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := runner.NewPool(w.workers).Execute(context.Background(), jobs); err != nil {
		return nil, fmt.Errorf("running %s: %w", w.name, err)
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	rep := &passReport{
		Wall: wall, Workers: w.workers, Jobs: results,
		Mallocs:    after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		GCCPUFrac:  after.GCCPUFraction,
	}
	if w.ckptEvery > 0 {
		var err error
		if rep.CkptWriteNs, rep.CkptReadNs, err = timeSnapshotIO(ckptDir, w); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runSetup runs the set-up-only job set for setupRounds rounds and
// setupTime in this process and reports the median round time; every
// round's jobs are checked.
func runSetup(w *workload, ckptDir string) (*passReport, error) {
	var walls []float64
	var all []jobResult
	var rep *passReport
	start := time.Now()
	for len(walls) < setupRounds || time.Since(start) < setupTime {
		r, err := runUntraced(w, ckptDir)
		if err != nil {
			return nil, err
		}
		walls = append(walls, r.Wall)
		all = append(all, r.Jobs...)
		rep = r
	}
	rep.Wall, rep.Jobs = median(walls), all
	return rep, nil
}

// runJob runs one job, turning a panic into a failed result.
func runJob(j job, every float64, ckptDir string) (r jobResult) {
	r.Name = j.name
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			r.Err = fmt.Sprint(p)
		}
		r.Seconds = time.Since(start).Seconds()
	}()
	if j.sim != nil {
		res := experiments.RunSim(*j.sim)
		r.Digest, r.FlowDigest = simDigests(res)
		r.Events = res.EventsFired
		return r
	}
	cfg := *j.topo
	if every > 0 {
		cfg.Label = j.name
	}
	res := experiments.RunTopoSim(cfg)
	r.Digest, r.FlowDigest = topoDigests(res)
	r.Events = res.EventsFired
	for _, c := range res.Churn {
		r.Arrivals += c.Arrivals
		r.Constructions += c.Constructions
		r.Reclaimed += c.Reclaimed
	}
	if every > 0 {
		r.Snapshots = snapshotCount(cfg.Warmup, cfg.Warmup+cfg.Duration, every)
		st, err := os.Stat(checkpoint.PathFor(ckptDir, cfg.Label))
		if err != nil {
			r.Err = fmt.Sprintf("no snapshot after the run: %v", err)
			return r
		}
		r.SnapshotBytes = st.Size()
		cfg.Resume = ckptDir
		t := time.Now()
		resumed := experiments.RunTopoSim(cfg)
		r.ResumeSeconds = time.Since(t).Seconds()
		if d, _ := topoDigests(resumed); d != r.Digest || resumed.EventsFired != r.Events {
			r.Err = fmt.Sprintf("resumed run (digest %s, %d events) differs from the uninterrupted one (%s, %d)",
				d, resumed.EventsFired, r.Digest, r.Events)
		}
	}
	return r
}

// snapshotCount mirrors the checkpoint cadence of RunTopoSim: one
// snapshot when warmup ends and one every `every` seconds strictly
// inside the measured window.
func snapshotCount(warmup, end, every float64) int {
	n := 1
	for k := 1; warmup+float64(k)*every < end; k++ {
		n++
	}
	return n
}

// snapshotIOReps is how many times each snapshot file operation is
// timed; the median is reported.
const snapshotIOReps = 15

// timeSnapshotIO times checkpoint.WriteFile and checkpoint.ReadFile on
// the real payload of the first job's latest snapshot.
func timeSnapshotIO(dir string, w *workload) (writeNs, readNs float64, err error) {
	src := checkpoint.PathFor(dir, w.jobs[0].name)
	dig, payload, err := checkpoint.ReadFile(src)
	if err != nil {
		return 0, 0, fmt.Errorf("reading snapshot: %w", err)
	}
	dst := filepath.Join(dir, "io-probe.ckpt")
	var ws, rs []float64
	for i := 0; i < snapshotIOReps; i++ {
		t := time.Now()
		if err := checkpoint.WriteFile(dst, dig, payload); err != nil {
			return 0, 0, fmt.Errorf("writing snapshot: %w", err)
		}
		ws = append(ws, float64(time.Since(t).Nanoseconds()))
		t = time.Now()
		if _, _, err := checkpoint.ReadFile(dst); err != nil {
			return 0, 0, fmt.Errorf("reading snapshot: %w", err)
		}
		rs = append(rs, float64(time.Since(t).Nanoseconds()))
	}
	return median(ws), median(rs), nil
}

// median returns the middle value (the mean of the two middle values
// for an even count) of a non-empty slice.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
