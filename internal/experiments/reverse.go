package experiments

import (
	"fmt"
	"math"

	"repro/internal/arrivals"
	"repro/internal/netsim"
	"repro/internal/runner"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// RevSimConfig describes one bidirectional simulation whose reverse
// path is routed through real queues: primary TFRC and TCP flows send
// data over a forward bottleneck while their feedback and ACKs traverse
// a chain of reverse bottleneck links — where they can be queued behind
// competing traffic, delayed, and dropped. The reverse chain can be
// congested by unresponsive cross traffic (RevCrossLoad), by
// opposing-direction TCP data (BackTCP), or starved by asymmetric
// capacities (RevCapacities), probing the regimes where the paper's
// conservativeness results rest on feedback actually arriving.
type RevSimConfig struct {
	// Capacity is the forward bottleneck rate in bytes/second.
	Capacity float64
	// Buffer is the forward DropTail capacity in packets.
	Buffer int
	// FwdDelay is the forward bottleneck's one-way propagation delay.
	FwdDelay float64
	// AccessDelay is the extra one-way delay from the forward
	// bottleneck's egress to each primary receiver.
	AccessDelay float64
	// RevExtra is the remaining reverse delay after the last reverse
	// hop back to each primary sender.
	RevExtra float64
	// RevCapacities lists the reverse chain's link rates in
	// bytes/second, traversed receiver → sender. Must be non-empty.
	RevCapacities []float64
	// RevBuffer is the per-reverse-hop DropTail capacity in packets.
	RevBuffer int
	// RevHopDelay is the per-reverse-hop one-way propagation delay.
	RevHopDelay float64
	// NTFRC and NTCP are the numbers of primary (forward-direction)
	// flows.
	NTFRC, NTCP int
	// BackTCP adds opposing-direction TCP flows: their data traverses
	// the reverse chain and their ACKs ride the forward bottleneck, so
	// acknowledgments compete with data in both directions.
	BackTCP int
	// RevCrossLoad, when positive, offers this fraction of the tightest
	// reverse hop's capacity as unresponsive on/off cross traffic over
	// the whole reverse chain.
	RevCrossLoad float64
	// L is the TFRC loss-interval window.
	L int
	// Comprehensive toggles TFRC's comprehensive-control element.
	Comprehensive bool
	// Duration and Warmup are the measured and discarded sim seconds.
	Duration, Warmup float64
	// Seed drives all randomness in the run.
	Seed uint64
	// RevJitter randomizes the terminal reverse delays (fraction, see
	// topology).
	RevJitter float64
	// Shards, when above 1, splits the run's network into at most that
	// many scheduling domains executed space-parallel (internal/shard).
	// The results are byte-identical to a serial run at any value.
	Shards int
}

// RevSimResult holds per-class aggregates of one routed-reverse run
// plus the reverse path's own telemetry.
type RevSimResult struct {
	// TFRC and TCP aggregate the primary forward-direction flows; Back
	// aggregates the opposing-direction TCP flows.
	TFRC, TCP, Back ClassStats
	// TFRCPerFlow and TCPPerFlow keep the primary flows' stats in
	// attachment order.
	TFRCPerFlow []tfrc.Stats
	TCPPerFlow  []tcp.Stats
	// BaseRTT is the primary flows' no-queueing round-trip time.
	BaseRTT float64
	// RevDrops counts packets dropped anywhere on the reverse chain over
	// the whole run (feedback, ACKs, back-traffic data and cross traffic
	// pooled); RevDropRate normalizes by the packets that entered the
	// chain, so it is the per-packet probability of not surviving the
	// whole chain and stays comparable across chain lengths.
	RevDrops    int64
	RevDropRate float64
	// NoFeedbackHalvings totals the primary TFRC senders' no-feedback
	// timer expirations in the measurement window.
	NoFeedbackHalvings int64
	// AcksPerPacket is the primary TCP classes' received-ACKs per data
	// packet sent in the window (nominally 1/b = 0.5; lower means ACK
	// loss on the reverse path).
	AcksPerPacket float64
	// EventsFired counts the scheduler events of the whole run.
	EventsFired uint64
	// Obs is the run's observability capture (nil unless the process-
	// wide Observe options enable one).
	Obs *RunObs
}

// RunRevSim executes the configured routed-reverse simulation and
// returns the per-class aggregates. It is fully deterministic in
// cfg.Seed.
func RunRevSim(cfg RevSimConfig) RevSimResult { return simulate(cfg.spec(), cfg.result) }

// spec declares the bidirectional graph: the forward bottleneck src →
// dst, and the reverse chain dst → … → src, one link per configured
// capacity, as every primary flow's routed reverse path. Opposing-
// direction flows send their data over the reverse chain and their ACKs
// over the forward bottleneck; reverse cross traffic sinks at the
// chain's end.
func (cfg RevSimConfig) spec() *runSpec {
	sp := &runSpec{seed: cfg.Seed, shards: cfg.Shards, warmup: cfg.Warmup,
		duration: cfg.Duration, jitter: cfg.RevJitter}
	src, dst := sp.node("src"), sp.node("dst")
	fwd := sp.link(linkSpec{from: src, to: dst, rate: cfg.Capacity, delay: cfg.FwdDelay,
		queue: DropTail, buffer: cfg.Buffer})
	sp.fwd = []topology.LinkID{fwd}
	sp.rev = make([]topology.LinkID, len(cfg.RevCapacities))
	from := dst
	for i, c := range cfg.RevCapacities {
		to := src
		if i < len(cfg.RevCapacities)-1 {
			to = sp.node(fmt.Sprintf("rev%d", i+1))
		}
		sp.rev[i] = sp.link(linkSpec{from: from, to: to, rate: c, delay: cfg.RevHopDelay,
			queue: DropTail, buffer: cfg.RevBuffer})
		from = to
	}
	tc := tfrc.DefaultConfig()
	tc.Window = cfg.L
	tc.Comprehensive = cfg.Comprehensive
	sp.groups = []flowGroup{
		{name: "NTFRC", proto: arrivals.TFRC, count: cfg.NTFRC, primary: true, tfrc: tc,
			fwdExtra: cfg.AccessDelay, revDelay: cfg.RevExtra},
		{name: "NTCP", proto: arrivals.TCP, count: cfg.NTCP, primary: true,
			fwdExtra: cfg.AccessDelay, revDelay: cfg.RevExtra},
	}
	if cfg.BackTCP != 0 {
		sp.groups = append(sp.groups, flowGroup{name: "BackTCP", proto: arrivals.TCP,
			count: cfg.BackTCP, route: sp.rev, revRoute: sp.fwd,
			fwdExtra: cfg.AccessDelay, revDelay: cfg.RevExtra})
	}
	if cfg.RevCrossLoad != 0 {
		// The source offers RevCrossLoad of the tightest reverse hop,
		// bursting at that hop's full rate.
		minCap := math.Inf(1)
		for _, c := range cfg.RevCapacities {
			minCap = math.Min(minCap, c)
		}
		sp.cross = []crossSpec{{route: sp.rev, capacity: minCap, peak: minCap, load: cfg.RevCrossLoad}}
	}
	return sp
}

// result maps a finished routed-reverse run to its per-class aggregates
// and the reverse chain's telemetry.
func (cfg RevSimConfig) result(r *run) RevSimResult {
	var res RevSimResult
	res.TFRCPerFlow = collectStats(r.groups[0].tfrc, (*tfrc.Sender).Stats)
	res.TCPPerFlow = collectStats(r.groups[1].tcp, (*tcp.Sender).Stats)
	res.TFRC = aggregateTFRC(res.TFRCPerFlow, cfg.L)
	res.TCP = aggregateTCP(res.TCPPerFlow)
	res.Back = aggregateTCP(collectStats(tcpSenders(r.groups[2:]), (*tcp.Sender).Stats))
	// Flow 0 is always a primary flow and all primaries share terminal
	// delays, so its base RTT represents the class.
	res.BaseRTT = r.env.BaseRTT(0)
	for _, id := range r.sp.rev {
		res.RevDrops += r.env.Link(id).Queue().(*netsim.DropTail).Drops
	}
	// All reverse-chain traffic enters at the first hop, so the packets
	// offered to the chain are that hop's forwards plus its own drops;
	// drops at later hops already count among the first hop's forwards.
	first := r.env.Link(r.sp.rev[0])
	if offered := first.Forwarded + first.Queue().(*netsim.DropTail).Drops; offered > 0 {
		res.RevDropRate = float64(res.RevDrops) / float64(offered)
	}
	for _, st := range res.TFRCPerFlow {
		res.NoFeedbackHalvings += st.NoFeedbackHalvings
	}
	var acks, pkts int64
	for _, st := range res.TCPPerFlow {
		acks += st.AcksReceived
		pkts += st.PacketsSent
	}
	if pkts > 0 {
		res.AcksPerPacket = float64(acks) / float64(pkts)
	}
	res.EventsFired = r.env.Fired()
	res.Obs = r.ob.collect(res.TFRCPerFlow, res.TCPPerFlow)
	return res
}

// reverseBase is the shared sizing of the routed-reverse scenarios: the
// single-hop parking-lot forward path (10 Mb/s DropTail-64, 10 ms) with
// a routed one-hop reverse path completing a 40 ms base RTT
// (10 + 5 + 5 + 20 ms, queueing and transmission excluded).
func reverseBase(sz Sizing) RevSimConfig {
	cfg := RevSimConfig{
		Capacity:      1.25e6,
		Buffer:        64,
		FwdDelay:      0.01,
		AccessDelay:   0.005,
		RevExtra:      0.02,
		RevCapacities: []float64{1.25e6},
		RevBuffer:     64,
		RevHopDelay:   0.005,
		NTFRC:         2,
		NTCP:          2,
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

// planRevCross sweeps unresponsive cross-traffic load on a tight
// reverse bottleneck (1/20 of the forward capacity): as the reverse
// link saturates, feedback reports and ACKs are queued and dropped, the
// TFRC senders fall back to no-feedback halving, and the ratio column
// tracks whether TFRC's conservativeness survives a degraded control
// loop — the regime the paper's long-run claims assume away.
func planRevCross(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name: "revcross",
		Note: "reverse-bottleneck cross traffic: TFRC/TCP under swept feedback-path load",
		Columns: []string{"rev_load", "fb_drop", "nf_halvings", "p_tfrc",
			"x_tfrc", "x_tcp", "ratio", "acks_per_pkt"},
	}
	var cells []cell[RevSimConfig]
	seed := uint64(3040)
	for _, load := range []float64{0, 0.5, 0.9, 1.2} {
		seed++
		cfg := reverseBase(sz)
		cfg.RevCapacities = []float64{cfg.Capacity / 20}
		cfg.RevCrossLoad = load
		cfg.Seed = seed
		cells = append(cells, cell[RevSimConfig]{
			name: fmt.Sprintf("revcross load=%.1f", load),
			cfg:  cfg, meta: []float64{load},
		})
	}
	return gridPlan(t, cells, func(c cell[RevSimConfig], res RevSimResult) [][]float64 {
		if res.TCP.Throughput <= 0 {
			return nil
		}
		return [][]float64{c.row(res.RevDropRate, float64(res.NoFeedbackHalvings),
			res.TFRC.LossEventRate, res.TFRC.Throughput, res.TCP.Throughput,
			res.TFRC.Throughput/res.TCP.Throughput, res.AcksPerPacket)}
	})
}

// planAckShare puts data and acknowledgments in the same queues: the
// reverse path has the forward capacity, and a swept number of
// opposing-direction TCP flows fill it with data that the primary
// flows' feedback and ACKs must compete with (while the back flows'
// own ACKs ride the forward bottleneck) — the classic two-way-traffic
// ack-compression experiment.
func planAckShare(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name: "ackshare",
		Note: "shared forward/reverse bottlenecks: acks competing with opposing data",
		Columns: []string{"back_flows", "x_tfrc", "x_tcp", "x_back",
			"rev_drop", "acks_per_pkt", "ratio"},
	}
	var cells []cell[RevSimConfig]
	seed := uint64(3140)
	for _, back := range []int{0, 1, 2, 4} {
		seed++
		cfg := reverseBase(sz)
		cfg.BackTCP = back
		cfg.Seed = seed
		cells = append(cells, cell[RevSimConfig]{
			name: fmt.Sprintf("ackshare back=%d", back),
			cfg:  cfg, meta: []float64{float64(back)},
		})
	}
	return gridPlan(t, cells, func(c cell[RevSimConfig], res RevSimResult) [][]float64 {
		if res.TCP.Throughput <= 0 {
			return nil
		}
		return [][]float64{c.row(res.TFRC.Throughput, res.TCP.Throughput,
			res.Back.Throughput, res.RevDropRate, res.AcksPerPacket,
			res.TFRC.Throughput/res.TCP.Throughput)}
	})
}

// planAsymRev probes asymmetric-capacity reverse chains (Table I's
// access links are far from symmetric): the reverse path narrows to a
// swept fraction of the forward capacity across one or two hops, and
// the TFRC class's normalized throughput x̄/f(p, r) is evaluated at its
// own measured loss-event rate and RTT — checking whether feedback
// starvation pushes the protocol off the formula.
func planAsymRev(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name: "asymrev",
		Note: "asymmetric-capacity reverse chains: x̄/f(p,r) under narrowing feedback paths",
		Columns: []string{"rev_hops", "rev_ratio", "fb_drop", "p_tfrc",
			"x_tfrc", "normalized"},
	}
	var cells []cell[RevSimConfig]
	seed := uint64(3240)
	for _, hops := range []int{1, 2} {
		for _, ratio := range []float64{0.5, 0.1, 0.02} {
			seed++
			cfg := reverseBase(sz)
			// Capacities descend geometrically to ratio·Capacity at the
			// last reverse hop.
			caps := make([]float64, hops)
			for i := range caps {
				caps[i] = cfg.Capacity * math.Pow(ratio, float64(i+1)/float64(hops))
			}
			cfg.RevCapacities = caps
			cfg.Seed = seed
			cells = append(cells, cell[RevSimConfig]{
				name: fmt.Sprintf("asymrev hops=%d ratio=%.2f", hops, ratio),
				cfg:  cfg, meta: []float64{float64(hops), ratio},
			})
		}
	}
	return gridPlan(t, cells, func(c cell[RevSimConfig], res RevSimResult) [][]float64 {
		cls := res.TFRC
		if cls.Events == 0 || cls.MeanRTT <= 0 {
			return nil
		}
		return [][]float64{c.row(res.RevDropRate, cls.LossEventRate, cls.Throughput, pftkNorm(cls))}
	})
}

func init() {
	register(&Scenario{Name: "revcross",
		Note:    "reverse-bottleneck cross traffic: feedback loss at swept reverse loads",
		Plan:    planRevCross,
		Sharded: true})
	register(&Scenario{Name: "ackshare",
		Note:    "shared forward/reverse bottlenecks: acks competing with opposing data",
		Plan:    planAckShare,
		Sharded: true})
	register(&Scenario{Name: "asymrev",
		Note:    "asymmetric-capacity reverse chains: conservativeness under feedback starvation",
		Plan:    planAsymRev,
		Sharded: true})
}
