package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/netsim"
	"repro/internal/runner"
	"repro/internal/shard"
	"repro/internal/topology"
)

// withCheckpoint runs fn with the process-wide checkpoint and observe
// options swapped in, restoring both afterwards. The checkpoint tests
// are deliberately NOT parallel: they mutate package globals, and the
// testing package guarantees sequential tests never overlap paused
// parallel ones.
func withCheckpoint(t *testing.T, ck CheckpointOptions, obs ObserveOptions, fn func()) {
	t.Helper()
	oldCk, oldObs := Checkpoint, Observe
	Checkpoint, Observe = ck, obs
	defer func() { Checkpoint, Observe = oldCk, oldObs }()
	fn()
}

// The tentpole contract: a run that snapshots along the way emits the
// same bytes as one that never does, and a run resumed from any of
// those snapshots finishes on the identical trajectory — on one shard
// and on several, and with metrics plus epoch logging on. The TestMain leak check is armed, so every resumed run
// also proves the freelist ledger survives the restore boundary.
func TestCheckpointResumeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level checkpoint runs skipped in -short mode")
	}
	sz := Sizing{Events: 2000, SimFactor: 0.04, Pairs: []int{1}, PairsCap: 1}
	cases := []struct {
		name     string
		scenario string
		shards   int
		obs      ObserveOptions
	}{
		{"serial", "parkinglot", 0, ObserveOptions{}},
		{"shards2", "parkinglot", 2, ObserveOptions{}},
		{"shards4", "parkinglot", 4, ObserveOptions{}},
		{"metrics-epochs", "parkinglot", 0, ObserveOptions{Metrics: true, Epochs: 4}},
		{"shards2-metrics-epochs", "parkinglot", 2, ObserveOptions{Metrics: true, Epochs: 4}},
		{"faults-watch", "linkflap", 0, ObserveOptions{}},
		{"churn", "surge", 0, ObserveOptions{}},
		{"red-probe", "fig7", 0, ObserveOptions{}},
		{"dumbbell-cross", "fig11", 0, ObserveOptions{}},
		{"routed-reverse-cross", "revcross", 0, ObserveOptions{}},
		{"routed-reverse-cross-shards2", "revcross", 2, ObserveOptions{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			szk := sz
			szk.Shards = tc.shards
			dir := t.TempDir()
			var base, snap, res []byte
			withCheckpoint(t, CheckpointOptions{}, tc.obs, func() {
				base = renderAll(t, tc.scenario, szk, runner.Serial{})
			})
			withCheckpoint(t, CheckpointOptions{Every: 2, Dir: dir}, tc.obs, func() {
				snap = renderAll(t, tc.scenario, szk, runner.Serial{})
			})
			withCheckpoint(t, CheckpointOptions{Resume: dir}, tc.obs, func() {
				res = renderAll(t, tc.scenario, szk, runner.Serial{})
			})
			if len(base) == 0 {
				t.Fatal("empty baseline output")
			}
			if !bytes.Equal(base, snap) {
				t.Fatalf("snapshotting changed the trajectory\nbase:\n%s\nckpt:\n%s", base, snap)
			}
			if !bytes.Equal(base, res) {
				t.Fatalf("resumed run differs from uninterrupted\nbase:\n%s\nresume:\n%s", base, res)
			}
			if tc.scenario == "revcross" && tc.shards > 1 {
				if n := revCrossNodeDeliveries(t, szk, dir); n == 0 {
					t.Fatal("the snapshot holds no packet in flight across the shard cut; the case exercises no cross-shard delivery")
				}
			}
		})
	}
}

// revCrossNodeDeliveries restores the snapshot revcross's first job left
// in dir and counts the pending deliveries it holds into the node a cut
// link ends at.
func revCrossNodeDeliveries(t *testing.T, sz Sizing, dir string) int {
	t.Helper()
	cfg := reverseBase(sz)
	cfg.RevCapacities = []float64{cfg.Capacity / 20}
	cfg.Seed = 3041
	sp := cfg.spec()
	sp.label, sp.resume = "revcross load=0.0", dir
	env := shard.New()
	if _, ok, err := build(sp, env).tryResume(); err != nil || !ok {
		t.Fatalf("no snapshot for %q in %s (%v)", sp.label, dir, err)
	}
	return env.Deliveries(topology.ToNode)
}

// The build starts the Poisson probe and the cross-traffic source at a
// seed-drawn instant in [0, 1) s, so with a short warmup both are still
// waiting to start when the warmup snapshot is taken. Their start
// timers are part of the snapshot: a resume from it matches the
// uninterrupted run.
func TestCheckpointResumeBeforeSourceStart(t *testing.T) {
	cfg := NS2Profile().Scale(0.02, 0).Config(1, 8, 41)
	cfg.ProbeRate, cfg.CrossLoad, cfg.Warmup = 10, 0.1, 0.05
	run := func(ck CheckpointOptions) SimResult {
		var res SimResult
		withCheckpoint(t, ck, ObserveOptions{}, func() {
			job := packetJob("early-sources", cfg.spec(), cfg.result)
			out, err := runner.Serial{}.Execute(context.Background(), []runner.Job{job})
			if err != nil {
				t.Fatal(err)
			}
			res = out[0].(SimResult)
		})
		return res
	}
	want := run(CheckpointOptions{})
	dir := t.TempDir()
	// Every exceeds the window: the one snapshot is the warmup's.
	if got := run(CheckpointOptions{Every: 1e6, Dir: dir}); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshotting changed the run:\n%+v\n%+v", got.Poisson, want.Poisson)
	}
	if got := run(CheckpointOptions{Resume: dir}); !reflect.DeepEqual(got, want) {
		t.Fatalf("run resumed before its sources started differs:\n%+v\n%+v", got.Poisson, want.Poisson)
	}
}

// Every packet-level job snapshots into the file its name maps to, so
// two jobs of the registry sharing a file would overwrite each other's
// snapshots under -parallel. Job names must map to distinct files
// across the whole registry, at both the quick and the full sizing.
func TestRegistryJobsSnapshotToDistinctFiles(t *testing.T) {
	t.Parallel()
	for _, sz := range []Sizing{Quick, Full} {
		owner := map[string]string{}
		for _, s := range Scenarios() {
			jobs, _ := s.Plan(sz)
			for _, j := range jobs {
				path := checkpoint.PathFor("ckpt", j.Name)
				if prev, dup := owner[path]; dup {
					t.Errorf("sizing %+v: jobs %q and %q share snapshot file %s", sz, prev, j.Name, path)
				}
				owner[path] = j.Name
			}
		}
		t.Logf("sizing %+v: %d jobs, all distinct", sz, len(owner))
	}
}

// A resume pointed at a directory with no snapshot for the job degrades
// to a from-scratch run with identical output — the self-healing pool
// relies on this when a job dies before its first save.
func TestCheckpointResumeMissingSnapshotRunsScratch(t *testing.T) {
	cfg := parkingLotBase(Sizing{SimFactor: 0.02})
	cfg.Seed = 31
	cfg.Label = "scratch"
	base := RunTopoSim(cfg)
	cfg.Resume = t.TempDir()
	res := RunTopoSim(cfg)
	if !reflect.DeepEqual(base, res) {
		t.Fatalf("scratch-degraded resume differs:\n%+v\n%+v", base.TFRC, res.TFRC)
	}
}

// Resuming under any config that disagrees with the snapshot's must
// fail loudly, naming both digests, before any simulation runs.
func TestCheckpointDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := parkingLotBase(Sizing{SimFactor: 0.02})
	cfg.Seed = 17
	cfg.Label = "digest"
	withCheckpoint(t, CheckpointOptions{Every: 1, Dir: dir}, ObserveOptions{}, func() {
		RunTopoSim(cfg)
	})
	snapDigest := cfg.spec().digest(0)

	cases := []struct {
		name string
		mut  func(*TopoSimConfig)
	}{
		{"seed", func(c *TopoSimConfig) { c.Seed++ }},
		{"hops", func(c *TopoSimConfig) { c.Hops++ }},
		{"duration", func(c *TopoSimConfig) { c.Duration *= 2 }},
		{"flows", func(c *TopoSimConfig) { c.NTFRC++ }},
		{"capacity", func(c *TopoSimConfig) { c.Capacity *= 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := cfg
			tc.mut(&bad)
			bad.Resume = dir
			runDigest := bad.spec().digest(0)
			if runDigest == snapDigest {
				t.Fatal("mutation did not change the config digest")
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("mismatched resume did not panic")
				}
				msg := fmt.Sprint(r)
				for _, want := range []string{
					"config digest mismatch",
					fmt.Sprintf("%016x", snapDigest),
					fmt.Sprintf("%016x", runDigest),
				} {
					if !strings.Contains(msg, want) {
						t.Fatalf("diagnostic %q missing %q", msg, want)
					}
				}
			}()
			RunTopoSim(bad)
		})
	}
}

// The self-healing loop end to end: a job that crashes after its
// checkpoints are written is retried by the hardened pool, resumes from
// its own snapshot, and delivers the same result as a run that never
// failed — with the retry visible in the pool snapshot.
func TestRetriedJobResumesToSameResult(t *testing.T) {
	cfg := parkingLotBase(Sizing{SimFactor: 0.02})
	cfg.Seed = 23

	plain := cfg
	plain.Label = "retry"
	want := RunTopoSim(plain)

	withCheckpoint(t, CheckpointOptions{Every: 2, Dir: t.TempDir()}, ObserveOptions{}, func() {
		job := packetJob("retry", cfg.spec(), cfg.result)
		inner := job.Run
		job.Run = func(ctx context.Context) any {
			v := inner(ctx)
			if runner.Attempt(ctx) == 1 {
				panic("injected crash after checkpointing")
			}
			return v
		}
		p := &runner.Pool{Workers: 1, Retries: 1, RetryBase: time.Millisecond}
		results, err := p.Execute(context.Background(), []runner.Job{job})
		if err != nil {
			t.Fatalf("retried job still failed: %v", err)
		}
		got, ok := results[0].(TopoSimResult)
		if !ok {
			t.Fatalf("result = %T", results[0])
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("retried result differs from never-failed run:\n%+v\n%+v", want.TFRC, got.TFRC)
		}
		if snap := p.Snapshot(); snap.Retries != 1 {
			t.Fatalf("pool snapshot retries = %d, want 1", snap.Retries)
		}
	})
}

// The barrier-aligned Unbounded depth samples must be monotone: the
// high-water series never decreases (it is a cumulative maximum) and
// the headroom series never increases, with each pair summing to the
// effective hard cap.
func TestUnboundedSamplesMonotone(t *testing.T) {
	c := shard.New()
	u := netsim.NewUnbounded()
	c.AddLink(c.AddNode("a"), c.AddNode("b"), 1e6, 0.01, u)
	c.Partition(1)
	o := &obsRun{eng: c, epochs: 4}
	for _, hw := range []int{0, 3, 7, 7, 12} {
		u.HighWater = hw
		o.sampleUnbounded()
	}
	if len(o.uhw) != 5 || len(o.headroom) != 5 {
		t.Fatalf("sample counts = %d, %d, want 5 each", len(o.uhw), len(o.headroom))
	}
	for i := range o.uhw {
		if i > 0 && o.uhw[i] < o.uhw[i-1] {
			t.Fatalf("high-water samples decreased: %v", o.uhw)
		}
		if i > 0 && o.headroom[i] > o.headroom[i-1] {
			t.Fatalf("headroom samples increased: %v", o.headroom)
		}
		if o.uhw[i]+o.headroom[i] != netsim.DefaultUnboundedCap {
			t.Fatalf("sample %d: hw %v + headroom %v != cap %d",
				i, o.uhw[i], o.headroom[i], netsim.DefaultUnboundedCap)
		}
	}
}

// Saves stream through the checkpoint package's fixed chunk: a run that
// snapshots every simulated second allocates less than a quarter of one
// snapshot's size per save beyond the same run without snapshots (about
// 5% at this size). A save that built the payload in memory first would
// allocate several payloads per save.
func TestCheckpointSavesStream(t *testing.T) {
	cfg := parkingLotBase(Sizing{})
	cfg.Hops, cfg.NTFRC, cfg.NTCP, cfg.CrossPerHop = 4, 32, 32, 1
	cfg.Warmup, cfg.Duration = 2, 20
	cfg.Seed = 29
	cfg.Label = "stream"
	dir := t.TempDir()
	allocated := func(ck CheckpointOptions) uint64 {
		var before, after runtime.MemStats
		withCheckpoint(t, ck, ObserveOptions{}, func() {
			RunTopoSim(cfg) // sizes the run arena
			runtime.ReadMemStats(&before)
			RunTopoSim(cfg)
			runtime.ReadMemStats(&after)
		})
		return after.TotalAlloc - before.TotalAlloc
	}
	plain := allocated(CheckpointOptions{})
	saved := allocated(CheckpointOptions{Every: 1, Dir: dir})
	st, err := os.Stat(checkpoint.PathFor(dir, cfg.Label))
	if err != nil {
		t.Fatal(err)
	}
	const saves = 20 // at warmup's end, then every second inside the window
	if extra := int64(saved) - int64(plain); extra > saves*st.Size()/4 {
		t.Errorf("%d saves of a %d-byte snapshot allocated %d bytes beyond the plain run, want <= %d",
			saves, st.Size(), extra, saves*st.Size()/4)
	}
}
