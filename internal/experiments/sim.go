package experiments

import (
	"repro/internal/arrivals"
	"repro/internal/estimator"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// QueueKind selects the bottleneck queue discipline.
type QueueKind int

// Queue disciplines.
const (
	// DropTail is a plain FIFO tail-drop queue.
	DropTail QueueKind = iota
	// RED is random early detection with the paper's parameters.
	RED
	// unbounded is the lossless FIFO of mirrored reverse chains; run
	// specs declare it, configs do not select it.
	unbounded
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

// RunSim executes the configured dumbbell simulation and returns the
// per-class aggregates. It is fully deterministic in cfg.Seed.
func RunSim(cfg SimConfig) SimResult { return simulate(cfg.spec(), cfg.result) }

// spec declares the dumbbell: every forward packet crosses the one
// bottleneck (the default route, which also sinks the unattached cross
// traffic) and the reverse path is a pure per-flow delay.
func (cfg SimConfig) spec() *runSpec {
	sp := &runSpec{seed: cfg.Seed, warmup: cfg.Warmup, duration: cfg.Duration, jitter: cfg.RevJitter}
	ingress, egress := sp.node("ingress"), sp.node("egress")
	sp.fwd = []topology.LinkID{sp.link(linkSpec{from: ingress, to: egress,
		rate: cfg.Capacity, delay: cfg.BaseDelay,
		queue: cfg.Queue, buffer: cfg.Buffer, bdp: cfg.BDPPackets})}
	tc := tfrc.DefaultConfig()
	tc.Window = cfg.L
	tc.Comprehensive = cfg.Comprehensive
	tc.HistoryDiscounting = cfg.HistoryDiscounting
	tc.Formula = cfg.TFRCFormula
	sp.groups = []flowGroup{
		{name: "NTFRC", proto: arrivals.TFRC, count: cfg.NTFRC, primary: true, tfrc: tc, revDelay: cfg.RevDelay},
		{name: "NTCP", proto: arrivals.TCP, count: cfg.NTCP, primary: true, revDelay: cfg.RevDelay},
	}
	if cfg.ProbeRate > 0 {
		sp.probe = probeSpec{rate: cfg.ProbeRate, rtt: 2*cfg.BaseDelay + cfg.RevDelay, revDelay: cfg.RevDelay}
	}
	if cfg.CrossLoad > 0 {
		sp.cross = []crossSpec{{capacity: cfg.Capacity, peak: cfg.Capacity / 2, load: cfg.CrossLoad}}
	}
	return sp
}

// result maps a finished dumbbell run to its per-class aggregates.
func (cfg SimConfig) result(r *run) SimResult {
	var res SimResult
	res.TFRCPerFlow = collectStats(r.groups[0].tfrc, (*tfrc.Sender).Stats)
	res.TCPPerFlow = collectStats(r.groups[1].tcp, (*tcp.Sender).Stats)
	res.TFRC = aggregateTFRC(res.TFRCPerFlow, cfg.L)
	res.TCP = aggregateTCP(res.TCPPerFlow)
	if r.probe != nil {
		st := r.probe.Stats()
		res.Poisson = ClassStats{Flows: 1, Events: st.LossEvents, LossEventRate: st.LossEventRate}
		if st.Duration > 0 {
			res.Poisson.Throughput = float64(st.PacketsSent) / st.Duration
		}
	}
	res.EventsFired = r.env.Fired()
	res.Obs = r.ob.collect(res.TFRCPerFlow, res.TCPPerFlow)
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
