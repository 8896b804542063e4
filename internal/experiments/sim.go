package experiments

import (
	"math"

	"repro/internal/cbr"
	"repro/internal/des"
	"repro/internal/estimator"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/tfrc"
)

// QueueKind selects the bottleneck queue discipline.
type QueueKind int

// Queue disciplines.
const (
	// DropTail is a plain FIFO tail-drop queue.
	DropTail QueueKind = iota
	// RED is random early detection with the paper's parameters.
	RED
)

// SimConfig describes one dumbbell simulation: the bottleneck, the flow
// mix (N TFRC + N TCP pairs, optionally a Poisson probe), and the
// measurement window.
type SimConfig struct {
	// Capacity is the bottleneck rate in bytes/second.
	Capacity float64
	// Queue selects the bottleneck discipline.
	Queue QueueKind
	// Buffer is the DropTail capacity in packets (ignored for RED).
	Buffer int
	// BDPPackets sizes the RED thresholds (ignored for DropTail).
	BDPPackets float64
	// BaseDelay is the bottleneck one-way propagation delay in seconds.
	BaseDelay float64
	// RevDelay is the uncongested reverse-path delay in seconds.
	RevDelay float64
	// NTFRC and NTCP are the numbers of TFRC and TCP flows.
	NTFRC, NTCP int
	// ProbeRate, when positive, adds one Poisson probe at this rate in
	// packets/second.
	ProbeRate float64
	// L is the TFRC loss-interval window.
	L int
	// Comprehensive toggles TFRC's comprehensive-control element.
	Comprehensive bool
	// TFRCFormula selects the TFRC throughput formula.
	TFRCFormula tfrc.FormulaKind
	// Duration and Warmup are the measured and discarded sim seconds.
	Duration, Warmup float64
	// Seed drives all randomness in the run.
	Seed uint64
	// RevJitter randomizes reverse-path delays (fraction, see netsim).
	RevJitter float64
	// CrossLoad, when positive, adds heavy-tailed on/off background
	// traffic offering this fraction of the bottleneck capacity.
	CrossLoad float64
	// HistoryDiscounting enables RFC 3448 §5.5 discounting in TFRC.
	HistoryDiscounting bool
}

// ClassStats aggregates one protocol class over all its flows.
type ClassStats struct {
	// Throughput is the mean per-flow send rate in packets/second.
	Throughput float64
	// LossEventRate is total loss events over total packets sent.
	LossEventRate float64
	// MeanRTT is the event-count-weighted mean RTT in seconds.
	MeanRTT float64
	// CovNorm is cov[θ0, θ̂0]·p², pooled over flows (TFRC only).
	CovNorm float64
	// Events is the total loss events across flows.
	Events int64
	// Flows is the number of flows in the class.
	Flows int
}

// SimResult holds per-class aggregates of one run.
type SimResult struct {
	TFRC, TCP, Poisson ClassStats
	// TCPPerFlow keeps each TCP flow's stats for scatter plots (Fig 9).
	TCPPerFlow []tcp.Stats
	// TFRCPerFlow keeps each TFRC flow's stats.
	TFRCPerFlow []tfrc.Stats
	// EventsFired is the number of discrete events the scheduler executed
	// over the whole run (warmup included) — the denominator for
	// events/second throughput measurements of the simulator itself.
	EventsFired uint64
	// Obs is the run's observability capture (nil unless the process-
	// wide Observe options enable one).
	Obs *RunObs
}

// staggeredStart schedules a sender's Start at a seed-drawn offset
// inside the first half of the warmup (capped at 5 s), breaking phase
// locking between flows that would otherwise start simultaneously.
func staggeredStart(sched *des.Scheduler, seedRNG *rng.RNG, warmup float64, start des.Event) {
	sched.At(seedRNG.Float64()*math.Min(warmup/2, 5), start)
}

// resetStats restarts every sender's measurement window (warmup ends).
func resetStats[S interface{ ResetStats() }](senders []S) {
	for _, s := range senders {
		s.ResetStats()
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

func tfrcStats(senders []*tfrc.Sender) []tfrc.Stats {
	return collectStats(senders, (*tfrc.Sender).Stats)
}

func tcpStats(senders []*tcp.Sender) []tcp.Stats {
	return collectStats(senders, (*tcp.Sender).Stats)
}

// RunSim executes the configured dumbbell simulation and returns the
// per-class aggregates. It is fully deterministic in cfg.Seed.
func RunSim(cfg SimConfig) SimResult {
	if cfg.Capacity <= 0 || cfg.Duration <= 0 || cfg.Warmup < 0 || cfg.L < 1 {
		panic("experiments: invalid sim config")
	}
	if cfg.NTFRC < 0 || cfg.NTCP < 0 || cfg.NTFRC+cfg.NTCP == 0 {
		panic("experiments: need at least one flow")
	}
	// The run rebuilds its simulation state inside a pooled one-shard
	// cluster (see arena.go): the scheduler's wheels and the network's
	// packet/flow pools carry their capacity across replications instead
	// of being reallocated.
	env, liveKey := getCluster(1)
	defer putCluster(env, liveKey)
	seedRNG := rng.New(cfg.Seed)

	var queue netsim.Queue
	switch cfg.Queue {
	case DropTail:
		if cfg.Buffer < 1 {
			panic("experiments: DropTail needs a buffer size")
		}
		queue = netsim.NewDropTail(cfg.Buffer)
	case RED:
		queue = netsim.NewRED(netsim.PaperRED(cfg.BDPPackets), cfg.Capacity, seedRNG.Split())
	default:
		panic("experiments: unknown queue kind")
	}
	// The dumbbell: every forward packet crosses the one bottleneck (the
	// default route, which also sinks unattached cross traffic) and the
	// reverse path is a pure per-flow delay.
	ingress, egress := env.AddNode("ingress"), env.AddNode("egress")
	env.SetDefaultRoute(env.AddLink(ingress, egress, cfg.Capacity, cfg.BaseDelay, queue))
	if cfg.RevJitter > 0 {
		env.SetReverseJitter(cfg.RevJitter, seedRNG.Uint64())
	}
	env.Partition(1)
	net := env.Shard(0)
	sched := net.Sched()
	// Tracer attach precedes endpoint construction: senders and
	// receivers resolve their domain's tracer once, when built. With
	// tracing off the tracer stays nil and every hook is a nil-sink.
	env.AttachTracers(Observe.TraceCap)
	ob := newObsRun(env, 0)

	tfrcCfg := tfrc.DefaultConfig()
	tfrcCfg.Window = cfg.L
	tfrcCfg.Comprehensive = cfg.Comprehensive
	tfrcCfg.HistoryDiscounting = cfg.HistoryDiscounting
	tfrcCfg.Formula = cfg.TFRCFormula

	flowID := 0
	tfrcSenders := make([]*tfrc.Sender, 0, cfg.NTFRC)
	for i := 0; i < cfg.NTFRC; i++ {
		c := tfrcCfg
		c.Seed = seedRNG.Uint64()
		snd, _ := tfrc.NewFlow(sched, net, flowID, c, 0, cfg.RevDelay)
		tfrcSenders = append(tfrcSenders, snd)
		staggeredStart(sched, seedRNG, cfg.Warmup, snd.Start)
		flowID++
	}
	tcpSenders := make([]*tcp.Sender, 0, cfg.NTCP)
	for i := 0; i < cfg.NTCP; i++ {
		snd, _ := tcp.NewFlow(sched, net, flowID, tcp.DefaultConfig(), 0, cfg.RevDelay)
		tcpSenders = append(tcpSenders, snd)
		staggeredStart(sched, seedRNG, cfg.Warmup, snd.Start)
		flowID++
	}
	var probe *cbr.Probe
	if cfg.ProbeRate > 0 {
		rttGuess := 2*cfg.BaseDelay + cfg.RevDelay
		probe = cbr.NewProbe(sched, net, flowID, 1000, cfg.ProbeRate, true, rttGuess,
			seedRNG.Uint64(), 0, cfg.RevDelay)
		sched.At(seedRNG.Float64(), probe.Start)
		flowID++
	}
	if cfg.CrossLoad > 0 {
		// Size the on/off source so its mean rate offers CrossLoad of
		// the capacity: bursts at half the link rate, mean 20 packets,
		// off time solved from the load.
		const meanBurst, pktSize = 20.0, 1000.0
		peak := cfg.Capacity / 2
		burstBytes := meanBurst * pktSize
		burstTime := burstBytes / peak
		target := cfg.CrossLoad * cfg.Capacity
		meanOff := burstBytes/target - burstTime
		if meanOff <= 0 {
			meanOff = 1e-3
		}
		ct := netsim.NewCrossTraffic(sched, net, flowID, peak, meanBurst, 1.5,
			meanOff, int(pktSize), seedRNG.Uint64())
		sched.At(seedRNG.Float64(), ct.Start)
	}

	env.Run(cfg.Warmup)
	resetStats(tfrcSenders)
	resetStats(tcpSenders)
	if probe != nil {
		probe.ResetStats()
	}
	ob.runMeasured(env.Run, cfg.Warmup, cfg.Warmup+cfg.Duration)

	var res SimResult
	res.TFRCPerFlow = tfrcStats(tfrcSenders)
	res.TCPPerFlow = tcpStats(tcpSenders)
	res.TFRC = aggregateTFRC(res.TFRCPerFlow, cfg.L)
	res.TCP = aggregateTCP(res.TCPPerFlow)
	if probe != nil {
		st := probe.Stats()
		res.Poisson = ClassStats{Flows: 1, Events: st.LossEvents, LossEventRate: st.LossEventRate}
		if st.Duration > 0 {
			res.Poisson.Throughput = float64(st.PacketsSent) / st.Duration
		}
	}
	res.EventsFired = env.Fired()
	res.Obs = ob.collect(res.TFRCPerFlow, res.TCPPerFlow)
	if LeakCheck {
		if err := env.CheckLeaks(); err != nil {
			panic(err)
		}
	}
	return res
}

func aggregateTFRC(perFlow []tfrc.Stats, L int) ClassStats {
	var cs ClassStats
	cs.Flows = len(perFlow)
	if len(perFlow) == 0 {
		return cs
	}
	var pkts, events int64
	var xSum, rttSum float64
	var covAcc stats.Cov
	total := 0
	for _, st := range perFlow {
		total += len(st.LossIntervals)
	}
	pAll := make([]float64, 0, total)
	for _, st := range perFlow {
		pkts += st.PacketsSent
		events += st.LossEvents
		xSum += st.Throughput
		rttSum += st.MeanRTT
		// Reconstruct the estimator trajectory from the interval series
		// to measure cov[θ0, θ̂0].
		feedCov(&covAcc, st.LossIntervals, L)
		pAll = append(pAll, st.LossIntervals...)
	}
	cs.Throughput = xSum / float64(len(perFlow))
	cs.MeanRTT = rttSum / float64(len(perFlow))
	cs.Events = events
	if pkts > 0 {
		cs.LossEventRate = float64(events) / float64(pkts)
	}
	if len(pAll) > 0 && covAcc.N() > 1 {
		meanTheta := stats.Mean(pAll)
		p := 1 / meanTheta
		cs.CovNorm = covAcc.Covariance() * p * p
	}
	return cs
}

// feedCov replays the TFRC weight average over an interval series and
// accumulates (θ_n, θ̂_n) pairs.
func feedCov(acc *stats.Cov, intervals []float64, L int) {
	if len(intervals) <= L {
		return
	}
	est := estimator.NewLossIntervalEstimator(estimator.TFRCWeights(L))
	for i, th := range intervals {
		if i >= L {
			acc.Add(th, est.Estimate())
		}
		est.Observe(th)
	}
}

func aggregateTCP(perFlow []tcp.Stats) ClassStats {
	var cs ClassStats
	cs.Flows = len(perFlow)
	if len(perFlow) == 0 {
		return cs
	}
	var pkts, events int64
	var xSum, rttSum float64
	for _, st := range perFlow {
		pkts += st.PacketsSent
		events += st.LossEvents
		xSum += st.Throughput
		rttSum += st.MeanRTT
	}
	cs.Throughput = xSum / float64(len(perFlow))
	cs.MeanRTT = rttSum / float64(len(perFlow))
	cs.Events = events
	if pkts > 0 {
		cs.LossEventRate = float64(events) / float64(pkts)
	}
	return cs
}
