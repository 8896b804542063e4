package experiments

import (
	"fmt"
	"math"

	"repro/internal/arrivals"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/formula"
	"repro/internal/netsim"
	"repro/internal/runner"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// TopoSimConfig describes one multi-hop simulation on a chain of
// bottleneck links (the "parking lot" of the multi-bottleneck
// literature): long TFRC and TCP flows traverse every hop end to end,
// while short TCP flows cross a single hop each. Hops = 1 degenerates
// to the dumbbell.
type TopoSimConfig struct {
	// Hops is the number of bottleneck links in series (>= 1).
	Hops int
	// Capacity is the per-hop link rate in bytes/second.
	Capacity float64
	// Buffer is the per-hop DropTail capacity in packets.
	Buffer int
	// HopDelay is the per-hop one-way propagation delay in seconds.
	HopDelay float64
	// AccessDelay is the extra one-way delay from the last hop's egress
	// to each long flow's receiver.
	AccessDelay float64
	// RevDelay is the uncongested reverse-path delay of the long flows.
	RevDelay float64
	// NTFRC and NTCP are the numbers of long (end-to-end) flows.
	NTFRC, NTCP int
	// CrossPerHop adds this many short TCP flows crossing each hop.
	CrossPerHop int
	// CrossRevDelay is the reverse-path delay of the crossing flows
	// (their forward path is just the one hop).
	CrossRevDelay float64
	// RTTSpread, when positive, scales long flow i's terminal delays by
	// 1 + RTTSpread·i/(n-1), giving a heterogeneous-RTT population
	// (flow 0 keeps the base RTT, the last flow gets 1+RTTSpread times
	// the terminal delays).
	RTTSpread float64
	// L is the TFRC loss-interval window.
	L int
	// Comprehensive toggles TFRC's comprehensive-control element.
	Comprehensive bool
	// Duration and Warmup are the measured and discarded sim seconds.
	Duration, Warmup float64
	// Seed drives all randomness in the run.
	Seed uint64
	// RevJitter randomizes reverse-path delays (fraction, see topology).
	RevJitter float64
	// Shards, when above 1, splits the run's network into at most that
	// many scheduling domains executed space-parallel (internal/shard).
	// The results are byte-identical to a serial run — the scheduler
	// event count included — at any value.
	Shards int
	// Faults, when non-nil, is the deterministic fault-injection plan
	// armed against the chain right after the graph freezes (see
	// internal/fault): timed link Down/Up transitions, runtime capacity
	// renegotiation, and per-link Gilbert–Elliott bursty loss. Link IDs
	// index the forward chain (0..Hops-1) and, under MirrorRev, the
	// mirrored reverse chain (Hops..2·Hops-1). Propagation delays are
	// immutable — fault.Plan has no delay operation — so the sharded
	// engine's lookahead horizon stays valid through any plan, and the
	// results remain byte-identical at every shard count.
	Faults *fault.Plan
	// Watch, when non-nil, samples every long TFRC flow's send rate
	// around one outage window and reports per-flow recovery times in
	// TopoSimResult.Recovery.
	Watch *RecoveryWatch
	// MirrorRev routes the long flows' feedback over a mirrored reverse
	// chain (Unbounded queues, link IDs Hops..2·Hops-1) instead of the
	// pure-delay reverse path, giving reverse-direction faults (ACK and
	// feedback starvation) real queues to act on. RevDelay becomes the
	// residual delay after the last reverse hop; crossing flows keep
	// pure-delay reverse paths.
	MirrorRev bool
	// Churn declares run-time session arrival classes (see
	// internal/arrivals): finite transfers that attach while the
	// simulation runs, drawn from the class's interarrival and size
	// laws. Forward classes ride the full forward chain; classes with
	// Reverse set ride the mirrored reverse chain and require MirrorRev.
	// Churn flows' feedback always takes the pure-delay reverse path.
	// Churn flow ids start after the last configured static flow.
	Churn []arrivals.Spec
	// ForceEpochs, when above 1, forces this run's epoch log (that many
	// epochs) even when the process-wide Observe options are off, so
	// churn folds can consume per-epoch deltas on a plain CLI run. It
	// never changes the simulation trajectory, and TSV epoch blocks stay
	// gated on the user's Observe selection.
	ForceEpochs int
	// Label names the run for checkpointing: the snapshot file is
	// Checkpoint.Dir/<sanitized label>.ckpt, and the label is folded
	// into the config digest. The scenario layer sets it to the job
	// name; an empty label opts the run out of checkpoint/resume.
	Label string
	// Resume, when set, asks this run to continue from the snapshot for
	// its label found in the named directory (a missing snapshot
	// degrades to a from-scratch run, a mismatched one fails loudly).
	// The run layer sets it from Checkpoint.Resume and from the
	// self-healing retry path; it is not part of the config digest.
	Resume string
}

// RecoveryWatch configures post-outage recovery measurement: each long
// TFRC flow's send rate is sampled every Interval; the last sample at
// or before Down fixes the flow's pre-outage rate, and the flow counts
// as recovered at the first sample at or after Up whose rate reaches
// Frac times that.
type RecoveryWatch struct {
	// Down and Up bound the outage in absolute simulation time.
	Down, Up float64
	// Frac is the recovery threshold as a fraction of the pre-outage
	// rate; <= 0 means 0.5.
	Frac float64
	// Interval is the sampling period in seconds; <= 0 means 0.05.
	Interval float64
}

// rateWatch samples one sender's rate on its own scheduler. The sample
// cadence is fixed (every Interval until the run ends, recovered or
// not), so the watcher contributes the same event count to every
// executor mode.
type rateWatch struct {
	sched *des.Scheduler
	rate  func() float64
	w     RecoveryWatch
	end   float64
	fn    des.Event

	preRate     float64
	recoveredAt float64
	// tm is the pending sample timer, retained so a snapshot can save
	// and re-arm it with its original identity.
	tm des.Timer
}

func newRateWatch(sched *des.Scheduler, rate func() float64, w RecoveryWatch, end float64) *rateWatch {
	if w.Frac <= 0 {
		w.Frac = 0.5
	}
	if w.Interval <= 0 {
		w.Interval = 0.05
	}
	rw := &rateWatch{sched: sched, rate: rate, w: w, end: end, recoveredAt: -1}
	rw.fn = rw.sample
	rw.tm = sched.At(sched.Now(), rw.fn)
	return rw
}

func (rw *rateWatch) sample() {
	now := rw.sched.Now()
	r := rw.rate()
	switch {
	case now <= rw.w.Down:
		rw.preRate = r
	case now >= rw.w.Up && rw.recoveredAt < 0 && rw.preRate > 0 && r >= rw.w.Frac*rw.preRate:
		rw.recoveredAt = now
	}
	if next := now + rw.w.Interval; next <= rw.end {
		rw.tm = rw.sched.At(next, rw.fn)
	}
}

// recovery returns seconds from the Up edge to the recovering sample,
// or -1 if the flow never regained the threshold before the run ended.
func (rw *rateWatch) recovery() float64 {
	if rw.recoveredAt < 0 {
		return -1
	}
	return rw.recoveredAt - rw.w.Up
}

// TopoSimResult holds per-class aggregates of one multi-hop run: the
// long flows by protocol, and the crossing flows pooled.
type TopoSimResult struct {
	// TFRC and TCP aggregate the long end-to-end flows.
	TFRC, TCP ClassStats
	// Cross aggregates the short crossing TCP flows over all hops.
	Cross ClassStats
	// TFRCPerFlow and TCPPerFlow keep the long flows' stats in
	// attachment order (flow i has the i-th smallest RTT under
	// RTTSpread).
	TFRCPerFlow []tfrc.Stats
	TCPPerFlow  []tcp.Stats
	// BaseRTT is the long flows' no-queueing RTT per TFRC flow index.
	BaseRTT []float64
	// EventsFired counts the scheduler events of the whole run.
	EventsFired uint64
	// FaultDrops totals packets dropped by fault hooks (outages, bursty
	// loss, flushes) over all links; FaultOffered additionally counts
	// what the faulted links forwarded, still held, or tail-dropped, so
	// FaultDrops/FaultOffered is the observed per-packet fault-loss
	// probability on those links (whole run, warmup included).
	FaultDrops, FaultOffered int64
	// UnboundedHighWater is the deepest any Unbounded queue of the run
	// got, in packets (0 when the chain has none).
	UnboundedHighWater int
	// Recovery, when cfg.Watch was set, holds per long TFRC flow the
	// seconds after the outage's Up edge until the flow's send rate
	// regained Watch.Frac of its pre-outage rate; -1 if it never did.
	Recovery []float64
	// Obs is the run's observability capture (nil unless the process-
	// wide Observe options or cfg.ForceEpochs enable one).
	Obs *RunObs
	// Churn summarizes each arrival class of cfg.Churn, in declaration
	// order (nil when the run had none).
	Churn []arrivals.ClassResult
}

// RunTopoSim executes the configured multi-hop simulation and returns
// the per-class aggregates. It is fully deterministic in cfg.Seed.
func RunTopoSim(cfg TopoSimConfig) TopoSimResult { return simulate(cfg.spec(), cfg.result) }

// spec declares the chain n0 → … → nHops as the default route, the
// mirrored reverse chain (links Hops..2·Hops-1) under MirrorRev, the
// long flows over the whole chain, CrossPerHop crossing flows per hop,
// and the churn classes.
func (cfg TopoSimConfig) spec() *runSpec {
	hops := max(cfg.Hops, 0)
	sp := &runSpec{label: cfg.Label, resume: cfg.Resume, seed: cfg.Seed, shards: cfg.Shards,
		warmup: cfg.Warmup, duration: cfg.Duration, forceEpochs: cfg.ForceEpochs,
		nodes: make([]string, 0, hops+1), links: make([]linkSpec, 0, 2*hops),
		fwd: make([]topology.LinkID, 0, hops), jitter: cfg.RevJitter, faults: cfg.Faults,
		groups: make([]flowGroup, 0, 2+hops), churn: make([]arrivals.Class, 0, len(cfg.Churn))}
	nodes := make([]topology.NodeID, 0, hops+1)
	for i := 0; i <= cfg.Hops; i++ {
		nodes = append(nodes, sp.node(fmt.Sprintf("n%d", i)))
	}
	for i := 0; i < cfg.Hops; i++ {
		sp.fwd = append(sp.fwd, sp.link(linkSpec{from: nodes[i], to: nodes[i+1],
			rate: cfg.Capacity, delay: cfg.HopDelay, queue: DropTail, buffer: cfg.Buffer}))
	}
	var revRoute []topology.LinkID
	if cfg.MirrorRev {
		revRoute = make([]topology.LinkID, 0, hops)
		for i := 0; i < cfg.Hops; i++ {
			revRoute = append(revRoute, sp.link(linkSpec{from: nodes[cfg.Hops-i], to: nodes[cfg.Hops-i-1],
				rate: cfg.Capacity, delay: cfg.HopDelay, queue: unbounded}))
		}
	}
	tc := tfrc.DefaultConfig()
	tc.Window = cfg.L
	tc.Comprehensive = cfg.Comprehensive
	sp.groups = append(sp.groups,
		flowGroup{name: "NTFRC", proto: arrivals.TFRC, count: cfg.NTFRC, primary: true, tfrc: tc,
			revRoute: revRoute, fwdExtra: cfg.AccessDelay, revDelay: cfg.RevDelay,
			spread: cfg.RTTSpread, watch: cfg.Watch},
		flowGroup{name: "NTCP", proto: arrivals.TCP, count: cfg.NTCP, primary: true,
			revRoute: revRoute, fwdExtra: cfg.AccessDelay, revDelay: cfg.RevDelay,
			spread: cfg.RTTSpread})
	for i := range sp.fwd {
		if cfg.CrossPerHop != 0 {
			sp.groups = append(sp.groups, flowGroup{name: "CrossPerHop", proto: arrivals.TCP,
				count: cfg.CrossPerHop, route: sp.fwd[i : i+1 : i+1], revDelay: cfg.CrossRevDelay})
		}
	}
	baseRTT := 2*(float64(cfg.Hops)*cfg.HopDelay+cfg.AccessDelay) + cfg.RevDelay
	for _, cs := range cfg.Churn {
		cl := arrivals.Class{Spec: cs, FwdHops: sp.fwd, FwdExtra: cfg.AccessDelay, RevDelay: cfg.RevDelay}
		if cs.Reverse {
			cl.FwdHops = revRoute
		}
		switch cs.Proto {
		case arrivals.TFRC:
			cl.TFRC = tc
			// Two silent feedback intervals retire a departed receiver's
			// clock; fresh data re-arms it.
			cl.TFRC.IdleStop = 2
		case arrivals.TCP:
			cl.TCP = tcp.DefaultConfig()
		case arrivals.CBR:
			cl.CBRSize = 1000
			cl.CBRRTT = baseRTT
		}
		sp.churn = append(sp.churn, cl)
	}
	return sp
}

// result maps a finished multi-hop run to its per-class aggregates.
func (cfg TopoSimConfig) result(r *run) TopoSimResult {
	var res TopoSimResult
	res.TFRCPerFlow = collectStats(r.groups[0].tfrc, (*tfrc.Sender).Stats)
	res.TCPPerFlow = collectStats(r.groups[1].tcp, (*tcp.Sender).Stats)
	res.TFRC = aggregateTFRC(res.TFRCPerFlow, cfg.L)
	res.TCP = aggregateTCP(res.TCPPerFlow)
	res.Cross = aggregateTCP(collectStats(tcpSenders(r.groups[2:]), (*tcp.Sender).Stats))
	// The long TFRC flows are the first group: flow ids 0..NTFRC-1.
	long := r.groups[0]
	res.BaseRTT = make([]float64, len(long.tfrc))
	for i := range res.BaseRTT {
		res.BaseRTT[i] = r.env.BaseRTT(i)
	}
	res.EventsFired = r.env.Fired()
	for id := 0; id < r.env.Links(); id++ {
		l := r.env.Link(topology.LinkID(id))
		if l.Fault != nil || l.FaultDrops > 0 {
			res.FaultDrops += l.FaultDrops
			// Accepted, not InFlight: the propagation stage's accounting
			// moves across the cut under sharding, so only the
			// executor-invariant part of the pipeline may enter the ratio.
			drops, _, _ := netsim.QueueStats(l.Queue())
			res.FaultOffered += l.FaultDrops + l.Accepted() + drops
		}
		if u, ok := l.Queue().(*netsim.Unbounded); ok && u.HighWater > res.UnboundedHighWater {
			res.UnboundedHighWater = u.HighWater
		}
	}
	if cfg.Watch != nil {
		res.Recovery = make([]float64, len(long.watch))
		for i, rw := range long.watch {
			res.Recovery[i] = rw.recovery()
		}
	}
	if r.churn != nil {
		res.Churn = r.churn.Results(r.end)
	}
	res.Obs = r.ob.collect(res.TFRCPerFlow, res.TCPPerFlow)
	return res
}

// parkingLotBase is the shared sizing of the multi-hop scenarios: per
// hop a 10 Mb/s DropTail bottleneck (the lab testbed rate), 10 ms per
// hop, with the long flows' terminal delays completing a 40 ms
// single-hop base RTT (10 + 5 + 25 ms, queueing and transmission
// excluded); each extra hop adds its 10 ms.
func parkingLotBase(sz Sizing) TopoSimConfig {
	cfg := TopoSimConfig{
		Hops:          1,
		Capacity:      1.25e6,
		Buffer:        64,
		HopDelay:      0.01,
		AccessDelay:   0.005,
		RevDelay:      0.025,
		NTFRC:         2,
		NTCP:          2,
		CrossPerHop:   0,
		CrossRevDelay: 0.02,
		L:             8,
		Comprehensive: true,
		Duration:      300,
		Warmup:        50,
		RevJitter:     0.2,
	}
	if sz.SimFactor > 0 && sz.SimFactor < 1 {
		cfg.Duration *= sz.SimFactor
		cfg.Warmup *= sz.SimFactor
	}
	cfg.Shards = sz.Shards
	return cfg
}

// planParkingLot sweeps the number of bottlenecks and the crossing load
// on a parking-lot chain: long TFRC and TCP flows over every hop
// against short TCP flows crossing one hop each. The long flows' loss
// and throughput degrade with each added congested hop; the ratio
// column tracks whether TFRC stays TCP-friendly while it happens.
func planParkingLot(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name: "parkinglot",
		Note: "parking lot: long TFRC/TCP over k bottlenecks vs short crossing TCP",
		Columns: []string{"hops", "cross_per_hop", "p_tfrc", "p_tcp",
			"x_tfrc", "x_tcp", "ratio", "x_cross"},
	}
	var cells []cell[TopoSimConfig]
	seed := uint64(2040)
	for _, hops := range []int{1, 2, 3} {
		for _, cross := range []int{1, 2} {
			seed++
			cfg := parkingLotBase(sz)
			cfg.Hops = hops
			cfg.CrossPerHop = cross
			cfg.Seed = seed
			cells = append(cells, cell[TopoSimConfig]{
				name: fmt.Sprintf("parkinglot hops=%d cross=%d", hops, cross),
				cfg:  cfg, meta: []float64{float64(hops), float64(cross)},
			})
		}
	}
	return gridPlan(t, cells, func(c cell[TopoSimConfig], res TopoSimResult) [][]float64 {
		if res.TCP.Throughput <= 0 {
			return nil
		}
		return [][]float64{c.row(res.TFRC.LossEventRate, res.TCP.LossEventRate,
			res.TFRC.Throughput, res.TCP.Throughput,
			res.TFRC.Throughput/res.TCP.Throughput,
			res.Cross.Throughput)}
	})
}

// planHetRTT runs matched TFRC/TCP populations whose terminal delays
// spread the base RTT by up to 4x on a shared bottleneck: per flow
// index, the throughputs and their ratio — the heterogeneous-RTT
// competition the dumbbell sweeps never exercised.
func planHetRTT(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name:    "hetrtt",
		Note:    "heterogeneous-RTT competition: matched TFRC/TCP per RTT class",
		Columns: []string{"flow", "base_rtt_ms", "x_tfrc", "x_tcp", "ratio"},
	}
	cfg := parkingLotBase(sz)
	cfg.NTFRC = 4
	cfg.NTCP = 4
	cfg.CrossPerHop = 0
	cfg.RTTSpread = 3 // flow 3 gets 4x the terminal delays of flow 0
	cfg.Seed = 2140
	cells := []cell[TopoSimConfig]{{name: "hetrtt", cfg: cfg}}
	return gridPlan(t, cells, func(c cell[TopoSimConfig], res TopoSimResult) [][]float64 {
		var rows [][]float64
		for i, st := range res.TFRCPerFlow {
			if i >= len(res.TCPPerFlow) {
				break
			}
			ct := res.TCPPerFlow[i]
			ratio := 0.0
			if ct.Throughput > 0 {
				ratio = st.Throughput / ct.Throughput
			}
			rows = append(rows, []float64{float64(i), res.BaseRTT[i] * 1000,
				st.Throughput, ct.Throughput, ratio})
		}
		return rows
	})
}

// planMultiBneck is the multi-bottleneck conservativeness sweep: a lone
// long TFRC flow crosses k hops, each congested by short TCP flows, and
// its normalized throughput x̄/f(p, r) is evaluated at its own measured
// loss-event rate and RTT — Claim 1's check in the setting the paper
// never simulated.
func planMultiBneck(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name:    "multibneck",
		Note:    "conservativeness over k congested hops: x̄/f(p,r) of a long TFRC flow",
		Columns: []string{"hops", "L", "p", "normalized", "covnorm"},
	}
	var cells []cell[TopoSimConfig]
	seed := uint64(2240)
	for _, hops := range []int{1, 2, 3} {
		for _, L := range []int{2, 8} {
			seed++
			cfg := parkingLotBase(sz)
			cfg.Hops = hops
			cfg.NTFRC = 1
			cfg.NTCP = 0
			cfg.CrossPerHop = 2
			cfg.L = L
			cfg.Seed = seed
			cells = append(cells, cell[TopoSimConfig]{
				name: fmt.Sprintf("multibneck hops=%d L=%d", hops, L),
				cfg:  cfg, meta: []float64{float64(hops), float64(L)},
			})
		}
	}
	return gridPlan(t, cells, func(c cell[TopoSimConfig], res TopoSimResult) [][]float64 {
		cls := res.TFRC
		if cls.Events == 0 || cls.MeanRTT <= 0 {
			return nil
		}
		f := formula.NewPFTKStandard(formula.ParamsForRTT(cls.MeanRTT))
		norm := cls.Throughput / f.Rate(math.Max(cls.LossEventRate, 1e-9))
		return [][]float64{c.row(cls.LossEventRate, norm, cls.CovNorm)}
	})
}

func init() {
	register(&Scenario{Name: "parkinglot",
		Note:    "parking-lot chain: long flows over 1-3 bottlenecks vs crossing TCP",
		Plan:    planParkingLot,
		Sharded: true})
	register(&Scenario{Name: "hetrtt",
		Note:    "heterogeneous-RTT competition on a shared bottleneck (1x-4x RTT spread)",
		Plan:    planHetRTT,
		Sharded: true})
	register(&Scenario{Name: "multibneck",
		Note:    "multi-bottleneck conservativeness sweep: x̄/f(p,r) over k congested hops",
		Plan:    planMultiBneck,
		Sharded: true})
}

// ParkingLot, HetRTT and MultiBneck are the serial convenience wrappers
// of the multi-hop scenario family.
func ParkingLot(sz Sizing) *Table { return runPlan(planParkingLot, sz)[0] }

// HetRTT reproduces the heterogeneous-RTT competition table.
func HetRTT(sz Sizing) *Table { return runPlan(planHetRTT, sz)[0] }

// MultiBneck reproduces the multi-bottleneck conservativeness sweep.
func MultiBneck(sz Sizing) *Table { return runPlan(planMultiBneck, sz)[0] }
