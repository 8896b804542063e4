package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/arrivals"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/shard"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// fullSpec returns a spec with every optional part present, every
// slice non-empty and no two slices sharing storage, so a walk over it
// reaches every leaf field on its own.
func fullSpec() *runSpec {
	return &runSpec{
		label: "full", resume: "dir",
		seed: 5, shards: 2, warmup: 1, duration: 10, forceEpochs: 4,
		nodes: []string{"a", "b"},
		links: []linkSpec{
			{from: 0, to: 1, rate: 1e6, delay: 0.01, queue: RED, buffer: 3, bdp: 20},
			{from: 1, to: 0, rate: 1e6, delay: 0.01, queue: unbounded},
		},
		fwd: []topology.LinkID{0}, rev: []topology.LinkID{1},
		jitter: 0.2,
		faults: &fault.Plan{Seed: 3,
			Events: []fault.Event{{At: 2, Link: 0, Op: fault.Down, Rate: 1, Policy: fault.Flush}},
			Losses: []fault.GE{{Link: 1, MeanGood: 100, MeanBad: 10, LossGood: 0.01, LossBad: 0.5}}},
		groups: []flowGroup{{
			name: "NTFRC", proto: arrivals.TFRC, count: 2, primary: true, tfrc: tfrc.DefaultConfig(),
			route: []topology.LinkID{0}, revRoute: []topology.LinkID{1},
			fwdExtra: 0.005, revDelay: 0.025, spread: 1,
			watch: &RecoveryWatch{Down: 3, Up: 4, Frac: 0.5, Interval: 0.1},
		}},
		probe: probeSpec{rate: 10, rtt: 0.05, revDelay: 0.03},
		cross: []crossSpec{{route: []topology.LinkID{0}, capacity: 1e6, peak: 5e5, load: 0.1}},
		churn: []arrivals.Class{{
			Spec: arrivals.Spec{Name: "mice", Proto: arrivals.TCP,
				Gap:   arrivals.Gap{Kind: arrivals.Weibull, Rate: 1, Shape: 0.6, Scale: 0.02},
				Size:  arrivals.Size{Kind: arrivals.Pareto, Packets: 4, Shape: 1.3, MinPackets: 4, CapPackets: 80},
				Start: 1, Stop: 9, MaxArrivals: 100, Seed: 7, Reverse: true, CBRRate: 50},
			FwdHops: []topology.LinkID{1}, RevHops: []topology.LinkID{0},
			FwdExtra: 0.005, RevDelay: 0.025,
			TFRC: tfrc.DefaultConfig(), TCP: tcp.DefaultConfig(),
			CBRSize: 1000, CBRRTT: 0.1,
		}},
	}
}

// leaves calls visit with a settable value for every leaf field
// reachable from v, descending into structs, pointers and slice
// elements. It fails the test on a nil pointer or an empty slice: the
// walk could not reach what they hold, so fullSpec must fill them.
func leaves(t *testing.T, v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			leaves(t, f, path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Pointer:
		if v.IsNil() {
			t.Fatalf("%s is nil in fullSpec: set it so the walk covers its fields", path)
		}
		leaves(t, v.Elem(), path, visit)
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s is empty in fullSpec: fill it so the walk covers its elements", path)
		}
		for i := 0; i < v.Len(); i++ {
			leaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	default:
		visit(path, v)
	}
}

// perturb changes one leaf value.
func perturb(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: no perturbation for kind %s", path, v.Kind())
	}
}

// The config digest is a run's identity for resume: every field of the
// spec — nested links, groups, fault plan and churn classes included —
// must reach it, or two different simulations would accept each
// other's snapshots. The walk is by reflection, so a field added to the
// spec without digest coverage fails here. resume is the one exception:
// it names where the snapshot is read from, not what the run is.
func TestDigestCoversEverySpecField(t *testing.T) {
	t.Parallel()
	const epochs = 4
	base := fullSpec().digest(epochs)
	var paths []string
	leaves(t, reflect.ValueOf(fullSpec()).Elem(), "spec", func(p string, _ reflect.Value) {
		paths = append(paths, p)
	})
	for n, p := range paths {
		sp := fullSpec()
		i := 0
		leaves(t, reflect.ValueOf(sp).Elem(), "spec", func(_ string, v reflect.Value) {
			if i == n {
				perturb(t, p, v)
			}
			i++
		})
		changed := sp.digest(epochs) != base
		switch {
		case p == "spec.resume" && changed:
			t.Errorf("perturbing %s changes the digest: a resumed run would refuse its own snapshot", p)
		case p != "spec.resume" && !changed:
			t.Errorf("perturbing %s leaves the digest unchanged", p)
		}
	}
	if fullSpec().digest(epochs+1) == base {
		t.Error("the effective epoch count does not reach the digest")
	}
	t.Logf("%d spec fields walked", len(paths))
}

// Every config error the driver knows about is reported by validate,
// naming the offending field, before any cluster is drawn; the Run*
// functions panic with the same text. Not parallel: the test swaps the
// cluster pool's constructor to count draws.
func TestValidateBeforeBuild(t *testing.T) {
	idle := clusterPool.idle
	drawn := 0
	clusterPool.idle = nil
	clusterPool.new = func() *shard.Cluster { drawn++; return shard.New() }
	defer func() { clusterPool.idle, clusterPool.new = idle, shard.New }()

	type badCase struct {
		name, want string
		sp         *runSpec
		run        func()
	}
	sim := func(name, want string, mut func(*SimConfig)) badCase {
		cfg := NS2Profile().Scale(0.01, 0).Config(1, 8, 1)
		mut(&cfg)
		return badCase{name, want, cfg.spec(), func() { RunSim(cfg) }}
	}
	rev := func(name, want string, mut func(*RevSimConfig)) badCase {
		cfg := reverseBase(Sizing{SimFactor: 0.01})
		mut(&cfg)
		return badCase{name, want, cfg.spec(), func() { RunRevSim(cfg) }}
	}
	topo := func(name, want string, mut func(*TopoSimConfig)) badCase {
		cfg := parkingLotBase(Sizing{SimFactor: 0.01})
		mut(&cfg)
		return badCase{name, want, cfg.spec(), func() { RunTopoSim(cfg) }}
	}
	cases := []badCase{
		sim("sim-zero", "Duration", func(c *SimConfig) { *c = SimConfig{} }),
		sim("sim-duration", "Duration", func(c *SimConfig) { c.Duration = 0 }),
		sim("sim-warmup", "Warmup", func(c *SimConfig) { c.Warmup = -1 }),
		sim("sim-capacity", "capacity", func(c *SimConfig) { c.Capacity = 0 }),
		sim("sim-droptail-buffer", "Buffer", func(c *SimConfig) { c.Queue, c.Buffer = DropTail, 0 }),
		sim("sim-queue-kind", "Queue kind", func(c *SimConfig) { c.Queue = QueueKind(7) }),
		sim("sim-window", "window L", func(c *SimConfig) { c.L = 0 }),
		sim("sim-no-flows", "NTFRC + NTCP", func(c *SimConfig) { c.NTFRC, c.NTCP = 0, 0 }),
		sim("sim-negative-tcp", "NTCP", func(c *SimConfig) { c.NTCP = -1 }),
		rev("rev-no-reverse-hops", "reverse route", func(c *RevSimConfig) { c.RevCapacities = nil }),
		rev("rev-capacity", "capacity", func(c *RevSimConfig) { c.RevCapacities = []float64{0} }),
		rev("rev-buffer", "Buffer", func(c *RevSimConfig) { c.RevBuffer = 0 }),
		rev("rev-back", "BackTCP", func(c *RevSimConfig) { c.BackTCP = -1 }),
		rev("rev-cross-load", "load", func(c *RevSimConfig) { c.RevCrossLoad = -0.1 }),
		topo("topo-hops", "hops", func(c *TopoSimConfig) { c.Hops = 0 }),
		topo("topo-cross", "CrossPerHop", func(c *TopoSimConfig) { c.CrossPerHop = -1 }),
		topo("topo-fault-link", "fault plan", func(c *TopoSimConfig) {
			c.Faults = (&fault.Plan{}).Flap(5, 1, 2, fault.Drain)
		}),
		topo("topo-reverse-churn", "MirrorRev", func(c *TopoSimConfig) {
			c.Churn = []arrivals.Spec{{Name: "rev", Proto: arrivals.TCP, Reverse: true,
				Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 1},
				Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 1}, Stop: 1, MaxArrivals: 1}}
		}),
	}
	for _, c := range cases {
		err := c.sp.validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: validate() = %v, want an error naming %q", c.name, err, c.want)
			continue
		}
		func() {
			defer func() {
				if p := fmt.Sprint(recover()); !strings.Contains(p, err.Error()) {
					t.Errorf("%s: Run panicked with %q, want the validation error %q", c.name, p, err)
				}
			}()
			c.run()
		}()
		// Through the runner the same failure is the job's input error,
		// naming the field, with no stack.
		var input *runner.InputError
		res := packetJob(c.name, c.sp, func(*run) int { return 0 }).Run(context.Background())
		if e, ok := res.(error); !ok || !errors.As(e, &input) || !strings.Contains(e.Error(), err.Error()) {
			t.Errorf("%s: job returned %v, want an input error naming %q", c.name, res, err)
		}
		if drawn != 0 || len(clusterPool.idle) != 0 {
			t.Fatalf("%s: a cluster was drawn before validation failed (%d built, %d idle)",
				c.name, drawn, len(clusterPool.idle))
		}
	}
	// A retry budget does not rerun them: each job runs once and fails
	// with its input error.
	jobs := make([]runner.Job, len(cases))
	calls := make([]int, len(cases))
	for i, c := range cases {
		j := packetJob(c.name, c.sp, func(*run) int { return 0 })
		run := j.Run
		j.Run = func(ctx context.Context) any { calls[i]++; return run(ctx) }
		jobs[i] = j
	}
	_, err := (&runner.Pool{Workers: 1, Retries: 2, RetryBase: time.Millisecond}).Execute(context.Background(), jobs)
	var m *runner.Manifest
	if !errors.As(err, &m) || len(m.Failed) != len(cases) {
		t.Fatalf("pool error %v, want a manifest of all %d jobs", err, len(cases))
	}
	for i, f := range m.Failed {
		var input *runner.InputError
		if f.Attempts != 1 || calls[f.Index] != 1 || !errors.As(f, &input) {
			t.Errorf("job %d (%s): %d attempts, %d calls, error %v; want one input error", i, f.Name, f.Attempts, calls[f.Index], f.Err)
		}
	}
	if drawn != 0 {
		t.Fatalf("the pool drew %d clusters for jobs that fail validation", drawn)
	}

	// Snapshots cannot carry the bounded trace rings, so a checkpointing
	// run under tracing is refused before it starts.
	withCheckpoint(t, CheckpointOptions{Resume: t.TempDir()}, ObserveOptions{TraceCap: 16}, func() {
		cfg := parkingLotBase(Sizing{SimFactor: 0.01})
		cfg.Label = "traced"
		cfg.Resume = Checkpoint.Resume
		if err := cfg.spec().validate(); err == nil || !strings.Contains(err.Error(), "tracing") {
			t.Errorf("checkpointing under tracing: validate() = %v, want the tracing conflict", err)
		}
	})
}
