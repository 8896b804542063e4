package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/arrivals"
	"repro/internal/cbr"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/shard"
	"repro/internal/tcp"
	"repro/internal/tfrc"
)

// LeakCheck, when set (the experiments test harness turns it on),
// verifies the packet-freelist leak invariant at the end of every
// packet-level run and panics on a violation. It stays off in
// production runs to keep the hot path assertion-free.
var LeakCheck bool

// run is one built simulation: the cluster it executes on, the flow
// groups' endpoints, and every stateful component in construction
// order.
type run struct {
	sp  *runSpec
	env *shard.Cluster
	end float64
	ob  *obsRun
	// groups holds each flow group's senders and recovery watchers, in
	// spec order.
	groups []flows
	probe  *cbr.Probe
	churn  *arrivals.Engine
	// parts lists every component with snapshot state in construction
	// order; the checkpoint sections save and restore them through it.
	parts []stateful

	saving bool
	digest uint64
}

// flows is one flow group as built: its senders in attachment order
// and one recovery watcher per sender when the group has a watch.
type flows struct {
	tfrc  []*tfrc.Sender
	tcp   []*tcp.Sender
	watch []*rateWatch
}

// runConfig is a packet-level run's configuration: it declares the
// run's spec and maps the finished run to its result.
type runConfig[R any] interface {
	spec() *runSpec
	result(r *run) R
}

// simulate validates the spec, builds it on a pooled cluster, steps it
// to the end and maps the finished run through result. A spec that
// fails validation, a fault plan the cluster refuses and a resume that
// cannot read its snapshot return the error: no retry of the job would
// get past it either.
func simulate[R any](sp *runSpec, result func(*run) R) (R, error) {
	var zero R
	if err := sp.validate(); err != nil {
		return zero, fmt.Errorf("experiments: %w", err)
	}
	// The run rebuilds its simulation state inside a pooled cluster (see
	// arena.go): one shard — the serial engine — for shards <= 1,
	// space-parallel otherwise. Either way wheels, packet pools and
	// flow-state records are reused across replications.
	env, live := getCluster(sp.shards)
	defer putCluster(env, live)
	r, err := build(sp, env)
	if err == nil {
		err = r.step()
	}
	if err != nil {
		return zero, err
	}
	res := result(r)
	if LeakCheck {
		if err := r.env.CheckLeaks(); err != nil {
			panic(err)
		}
	}
	return res, nil
}

// mustSimulate is simulate for the Run* functions: their callers run
// outside the runner, and an error panics with its text.
func mustSimulate[R any](sp *runSpec, result func(*run) R) R {
	res, err := simulate(sp, result)
	if err != nil {
		panic(err)
	}
	return res
}

// build builds the spec on a reset cluster in declaration order. The
// order fixes the run's randomness: a RED queue splits its stream off
// the seed stream when its link is built, the reverse-jitter seed is
// drawn after every link, each TFRC flow draws its seed before it
// attaches, and every sender's staggered start and every source's start
// draw follow its construction. It returns the error of a fault plan the
// cluster refuses.
func build(sp *runSpec, env *shard.Cluster) (*run, error) {
	r := &run{sp: sp, env: env, end: sp.warmup + sp.duration}
	seedRNG := rng.New(sp.seed)
	for _, name := range sp.nodes {
		env.AddNode(name)
	}
	for _, l := range sp.links {
		var q netsim.Queue
		switch l.queue {
		case DropTail:
			q = netsim.NewDropTail(l.buffer)
		case RED:
			q = netsim.NewRED(netsim.PaperRED(l.bdp), l.rate, seedRNG.Split())
		case unbounded:
			q = netsim.NewUnbounded()
		}
		env.AddLink(l.from, l.to, l.rate, l.delay, q)
	}
	env.SetDefaultRoute(sp.fwd...)
	if sp.rev != nil {
		env.SetDefaultReverseRoute(sp.rev...)
	}
	if sp.jitter > 0 {
		env.SetReverseJitter(sp.jitter, seedRNG.Uint64())
	}
	env.Partition(sp.shards)
	// Tracer attach sits between the partition (shards exist, links are
	// owned) and both the fault arming and endpoint construction, which
	// each resolve their domain's tracer once. Cap <= 0 (tracing off)
	// leaves every tracer nil.
	env.AttachTracers(Observe.TraceCap)
	// Sized for every component: capture, fault plan, each flow's sender,
	// receiver and watcher, probe, cross-traffic sources, churn engine.
	n := 4 + len(sp.cross)
	for _, g := range sp.groups {
		if n += 2 * g.count; g.watch != nil {
			n += g.count
		}
	}
	r.parts = make([]stateful, 0, n)
	if r.ob = newObsRun(env, sp.forceEpochs); r.ob != nil {
		r.parts = append(r.parts, r.ob)
	}
	// Arm the fault plan right after the partition: every timed transition
	// is scheduled at declaration time, in plan order, on the scheduler
	// that owns its link — the same (time, arming-key, seq) order on the
	// serial and sharded engines. A nil plan arms nothing and consumes
	// no randomness.
	armed, err := fault.Arm(env, sp.faults)
	if err != nil {
		return nil, fmt.Errorf("experiments: invalid fault plan: %w", err)
	}
	if armed != nil {
		r.parts = append(r.parts, armed)
	}

	flow := 0
	r.groups = make([]flows, len(sp.groups))
	for gi := range sp.groups {
		g, fl := &sp.groups[gi], &r.groups[gi]
		// A group's flows share their route, so they share the shards
		// their senders and receivers run on.
		hops := g.route
		if hops == nil {
			hops = sp.fwd
		}
		sndSched, sndNet, rcvSched, rcvNet := env.RouteEnv(hops)
		if g.proto == arrivals.TFRC {
			fl.tfrc = make([]*tfrc.Sender, 0, g.count)
			if g.watch != nil {
				fl.watch = make([]*rateWatch, 0, g.count)
			}
		} else {
			fl.tcp = make([]*tcp.Sender, 0, g.count)
		}
		for i := 0; i < g.count; i++ {
			k := 1.0
			if g.spread > 0 && g.count > 1 {
				k = 1 + g.spread*float64(i)/float64(g.count-1)
			}
			if g.route != nil {
				env.SetRoute(flow, g.route...)
			}
			if g.revRoute != nil {
				env.SetReverseRoute(flow, g.revRoute...)
			}
			if g.proto == arrivals.TFRC {
				c := g.tfrc
				c.Seed = seedRNG.Uint64()
				snd, rcv := tfrc.NewFlowOn(sndSched, sndNet, rcvSched, rcvNet, flow, c,
					g.fwdExtra*k, g.revDelay*k)
				fl.tfrc = append(fl.tfrc, snd)
				r.parts = append(r.parts, snd, rcv)
				staggeredStart(sndSched, seedRNG, sp.warmup, snd.Start)
				if g.watch != nil {
					rw := newRateWatch(sndSched, snd.Rate, *g.watch, r.end)
					fl.watch = append(fl.watch, rw)
					r.parts = append(r.parts, rw)
				}
			} else {
				snd, rcv := tcp.NewFlowOn(sndSched, sndNet, rcvSched, rcvNet, flow, tcp.DefaultConfig(),
					g.fwdExtra*k, g.revDelay*k)
				fl.tcp = append(fl.tcp, snd)
				r.parts = append(r.parts, snd, rcv)
				staggeredStart(sndSched, seedRNG, sp.warmup, snd.Start)
			}
			flow++
		}
	}

	if p := sp.probe; p.rate > 0 {
		ss, rs := env.FlowEnv(flow)
		r.probe = cbr.NewProbe(ss.Sched(), ss, rs.Sched(), flow, 1000, p.rate, true, p.rtt,
			seedRNG.Uint64(), 0, p.revDelay)
		r.startAt(ss.Sched(), seedRNG.Float64(), r.probe, r.probe.Start)
		flow++
	}
	for _, c := range sp.cross {
		var src *shard.Shard
		if c.route == nil {
			src = env.SinkEnv(sp.fwd...)
		} else {
			env.AttachSink(flow, c.route...)
			src = env.SinkEnv(c.route...)
		}
		// Bursts of mean meanBurst packets at the peak rate; the mean off
		// time is solved so the source offers load·capacity on average.
		const meanBurst, pktSize = 20.0, 1000.0
		burstBytes := meanBurst * pktSize
		burstTime := burstBytes / c.peak
		target := c.load * c.capacity
		meanOff := burstBytes/target - burstTime
		if meanOff <= 0 {
			meanOff = 1e-3
		}
		ct := netsim.NewCrossTraffic(src.Sched(), src, flow, c.peak, meanBurst, 1.5,
			meanOff, int(pktSize), seedRNG.Uint64())
		r.startAt(src.Sched(), seedRNG.Float64(), ct, ct.Start)
		flow++
	}

	// Churn classes arm after every static flow (their id block starts at
	// flow) and before the first Run: the flow table must be sized and
	// the cross-shard pure-delay reverse channels declared while the
	// cluster is still unsealed.
	if len(sp.churn) > 0 {
		r.churn = arrivals.NewEngine(env, flow, sp.churn)
		lo, count := r.churn.FlowRange()
		env.ReserveFlows(lo + count)
		for _, cl := range sp.churn {
			env.DeclareReverseChannel(cl.FwdHops, cl.RevDelay)
		}
		r.churn.Arm()
		r.parts = append(r.parts, r.churn)
	}

	r.saving = sp.label != "" && Checkpoint.Every > 0 && Checkpoint.Dir != ""
	if sp.checkpointed() {
		epochs := 0
		if r.ob != nil {
			epochs = r.ob.epochs
		}
		r.digest = sp.digest(epochs)
	}
	return r, nil
}

// staggeredStart schedules a sender's Start at a seed-drawn offset
// inside the first half of the warmup (capped at 5 s), breaking phase
// locking between flows that would otherwise start simultaneously.
func staggeredStart(sched *des.Scheduler, seedRNG *rng.RNG, warmup float64, start des.Event) {
	sched.At(seedRNG.Float64()*math.Min(warmup/2, 5), start)
}

// startAt schedules a traffic source's start at t and lists the source
// with its start timer as one component.
func (r *run) startAt(sched *des.Scheduler, t float64, s stateful, start des.Event) {
	src := &source{stateful: s, sched: sched, start: start}
	src.tm = sched.At(t, start)
	r.parts = append(r.parts, src)
}

// step drives the run through one merged instant sequence: warmup, the
// stats reset, then the measured window's epoch boundaries and snapshot
// times to the end. A resumed run starts from its snapshot's clock and
// skips every instant up to it. With neither epochs nor snapshots the
// sequence is exactly Run(warmup), Run(end). It returns the error of a
// snapshot the resume could not read.
func (r *run) step() error {
	from, to := r.sp.warmup, r.end
	at := -1.0
	if r.sp.label != "" && r.sp.resume != "" {
		t, ok, err := r.tryResume()
		if err != nil {
			return err
		}
		if ok {
			at = t
		}
	}
	if at < 0 {
		r.env.Run(from)
		r.resetStats()
		r.ob.begin()
		r.saveAt(from)
		at = from
	}
	// The instants are pure float arithmetic from the spec and the
	// options, so an interrupted run and its resumed continuation step
	// through identical ones. Epoch i of n ends at from + w·(i+1), the
	// last at to (one epoch when the run logs none: the end); snapshot k
	// falls at from + k·Every, strictly inside the window.
	n := 1
	if r.ob != nil && r.ob.epochs > 1 {
		n = r.ob.epochs
	}
	w := (to - from) / float64(n)
	start := from
	for i, k := 0, 1; i < n; {
		end := from + w*float64(i+1)
		if i == n-1 {
			end = to
		}
		t, save := end, false
		if ts := from + float64(k)*Checkpoint.Every; r.saving && ts < to && ts <= end {
			t, save = ts, true
			k++
		}
		if t > at {
			r.env.Run(t)
			if t == end {
				r.ob.boundary(i, start, t)
			}
			if save {
				r.saveAt(t)
			}
		}
		if t == end {
			i, start = i+1, t
		}
	}
	return nil
}

// resetStats restarts every sender's and the probe's measurement window
// (warmup ends). Never on a resumed run, whose snapshot postdates the
// reset; churn flows attach after warmup and measure from their start.
func (r *run) resetStats() {
	for _, fl := range r.groups {
		for _, s := range fl.tfrc {
			s.ResetStats()
		}
		for _, s := range fl.tcp {
			s.ResetStats()
		}
	}
	if r.probe != nil {
		r.probe.ResetStats()
	}
}

// collectStats gathers each sender's measurement-window summary in
// attachment order.
func collectStats[S any, St any](senders []S, stats func(S) St) []St {
	out := make([]St, 0, len(senders))
	for _, s := range senders {
		out = append(out, stats(s))
	}
	return out
}

// tcpSenders returns the TCP senders of the given groups in attachment
// order.
func tcpSenders(groups []flows) []*tcp.Sender {
	n := 0
	for _, fl := range groups {
		n += len(fl.tcp)
	}
	out := make([]*tcp.Sender, 0, n)
	for _, fl := range groups {
		out = append(out, fl.tcp...)
	}
	return out
}

// packetJob wraps one packet-level run as a runner job. The job name
// becomes the run's checkpoint label; an explicit Checkpoint.Resume
// directory applies to every attempt, and a retry attempt (the
// self-healing pool re-dispatching a deadline-abandoned or panicked
// job) resumes from the job's own last snapshot when checkpointing is
// on.
func packetJob[R any](name string, sp *runSpec, result func(*run) R) runner.Job {
	return runner.Job{
		Name: name,
		Seed: sp.seed,
		Run: func(ctx context.Context) any {
			s := *sp
			s.label = name
			s.resume = Checkpoint.Resume
			if s.resume == "" && runner.Attempt(ctx) > 1 &&
				Checkpoint.Every > 0 && Checkpoint.Dir != "" {
				s.resume = Checkpoint.Dir
			}
			res, err := simulate(&s, result)
			if err != nil {
				return &runner.InputError{Err: err}
			}
			return res
		},
	}
}

// cell is one sweep point of a packet-level grid: the job's name, its
// run's config, and meta, the leading columns of the rows it folds
// into.
type cell[C any] struct {
	name string
	cfg  C
	meta []float64
}

// row returns the cell's leading columns followed by vals.
func (c cell[C]) row(vals ...float64) []float64 {
	return append(append(make([]float64, 0, len(c.meta)+len(vals)), c.meta...), vals...)
}

// gridPlan is the shared shape of the packet-level figures: one job per
// sweep cell, each completed run folded into zero or more rows of t.
func gridPlan[C runConfig[R], R any](t *Table, cells []cell[C],
	rows func(c cell[C], res R) [][]float64) ([]runner.Job, FoldFunc) {
	jobs := make([]runner.Job, len(cells))
	for i, c := range cells {
		jobs[i] = packetJob(c.name, c.cfg.spec(), c.cfg.result)
	}
	fold := func(results []any) []*Table {
		for i, r := range results {
			if r == nil {
				// The cell's job died under a hardened executor (see
				// runner.Manifest): its rows are absent, the rest fold.
				continue
			}
			for _, row := range rows(cells[i], r.(R)) {
				t.AddRow(row...)
			}
		}
		return []*Table{t}
	}
	return jobs, fold
}
