package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/arrivals"
	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/shard"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// The traced pass rebuilds every job from the layers' public
// constructors, in the order and with the RNG draws of
// experiments.RunSim and experiments.RunTopoSim, and wraps each public
// seam between layers in a span: queues, the link Deliver/Handoff/Fault
// hooks, the networks protocols send through, protocol endpoints, the
// churn host and the calls that drive simulated time. A rebuilt job
// must fire exactly the events of its untraced run and reproduce its
// per-flow statistics; a job that does not is reported and left out.

// jobTrace is the span store of one traced job.
type jobTrace struct {
	id   int
	name string
	// main is the lane of the goroutine driving the job; lanes are the
	// event loops ([main] on the serial engine, one per shard on the
	// cluster).
	main  *lane
	lanes []*lane
	spans []span
	// shardLanes is true when lanes are shard drivers separate from main.
	shardLanes bool

	events, cascaded uint64
	windows          int64
	handoffs         int64
	shardFired       []uint64
	barrierWait      []time.Duration
	driveNs          int64
	flow             string
	err              string
}

func newJobTrace(id int, name string) *jobTrace {
	jt := &jobTrace{id: id, name: name, main: newLane()}
	jt.lanes = []*lane{jt.main}
	return jt
}

// drive runs one time-advancing call inside a drive-loop span.
func (jt *jobTrace) drive(name string, fn func()) {
	start := now()
	jt.main.begin(seamDrive)
	jt.setRunning(true)
	fn()
	jt.setRunning(false)
	jt.main.end()
	end := now()
	jt.spans = append(jt.spans, span{Name: name, Start: start, End: end, Job: jt.id})
	jt.driveNs += end - start
}

func (jt *jobTrace) setRunning(on bool) {
	jt.main.running = on
	for _, l := range jt.lanes {
		l.running = on
	}
}

// tracedQueue wraps a link's queue discipline; it also samples the
// pending-event population of the link's scheduler at every enqueue.
type tracedQueue struct {
	q     netsim.Queue
	lane  *lane
	sched *des.Scheduler
}

func (t *tracedQueue) Enqueue(p *netsim.Packet, now float64) bool {
	t.lane.pendSum += int64(t.sched.Pending())
	t.lane.pendN++
	t.lane.begin(seamEnqueue)
	ok := t.q.Enqueue(p, now)
	t.lane.end()
	return ok
}

func (t *tracedQueue) Dequeue(now float64) *netsim.Packet {
	t.lane.begin(seamDequeue)
	p := t.q.Dequeue(now)
	t.lane.end()
	return p
}

func (t *tracedQueue) Len() int { return t.q.Len() }

// tracedNet wraps the netsim.Network protocols send through.
type tracedNet struct {
	inner        netsim.Network
	lane         *lane
	send, attach seam
	// rcvLane is the lane of the receiver of the flow attached next;
	// topoEngine.flowEnv sets it before each flow constructor runs.
	rcvLane *lane
}

func (n *tracedNet) GetPacket() *netsim.Packet  { return n.inner.GetPacket() }
func (n *tracedNet) PutPacket(p *netsim.Packet) { n.inner.PutPacket(p) }

func (n *tracedNet) SendForward(p *netsim.Packet) {
	n.lane.begin(n.send)
	n.inner.SendForward(p)
	n.lane.end()
}

func (n *tracedNet) SendReverse(p *netsim.Packet) {
	n.lane.begin(n.send)
	n.inner.SendReverse(p)
	n.lane.end()
}

func (n *tracedNet) AttachFlow(flow int, sender, receiver netsim.Endpoint, fwdExtra, revDelay float64) {
	rl := n.rcvLane
	if rl == nil {
		rl = n.lane
	}
	s, r := wrapEndpoint(sender, n.lane, seamProbeRecv), wrapEndpoint(receiver, rl, seamProbeRecv)
	n.lane.begin(n.attach)
	n.inner.AttachFlow(flow, s, r, fwdExtra, revDelay)
	n.lane.end()
}

// tracedEndpoint wraps one protocol endpoint's Receive.
type tracedEndpoint struct {
	inner netsim.Endpoint
	lane  *lane
	s     seam
}

func (e *tracedEndpoint) Receive(p *netsim.Packet) {
	e.lane.begin(e.s)
	e.inner.Receive(p)
	e.lane.end()
}

// wrapEndpoint picks the endpoint's seam from its protocol; function
// endpoints (the paper workload's probe, the churn engine's CBR
// transfers) take the seam their attach site names.
func wrapEndpoint(ep netsim.Endpoint, l *lane, fn seam) netsim.Endpoint {
	s := fn
	switch ep.(type) {
	case *tfrc.Sender:
		s = seamTFRCFeedback
	case *tfrc.Receiver:
		s = seamTFRCData
	case *tcp.Sender:
		s = seamTCPAck
	case *tcp.Receiver:
		s = seamTCPData
	}
	return &tracedEndpoint{inner: ep, lane: l, s: s}
}

// wrapLink wraps a link's Deliver, Handoff and Fault hooks, whichever
// are set.
func wrapLink(l *netsim.Link, ln *lane, arrive seam) {
	if d := l.Deliver; d != nil {
		l.Deliver = func(p *netsim.Packet) {
			ln.begin(arrive)
			d(p)
			ln.end()
		}
	}
	if h := l.Handoff; h != nil {
		l.Handoff = func(p *netsim.Packet) {
			ln.begin(seamHandoff)
			h(p)
			ln.end()
		}
	}
}

func wrapFault(l *netsim.Link, ln *lane) {
	if f := l.Fault; f != nil {
		l.Fault = func(p *netsim.Packet) bool {
			ln.begin(seamFault)
			drop := f(p)
			ln.end()
			return drop
		}
	}
}

// staggeredStart mirrors the experiments package: a sender starts at a
// seed-drawn offset inside the first half of the warmup (capped at 5 s).
func staggeredStart(sched *des.Scheduler, seedRNG *rng.RNG, warmup float64, start des.Event) {
	sched.At(seedRNG.Float64()*math.Min(warmup/2, 5), start)
}

// tracedSim rebuilds experiments.RunSim for the configurations the
// workloads use.
func tracedSim(cfg experiments.SimConfig, jt *jobTrace) error {
	if cfg.CrossLoad > 0 {
		return errors.New("traced rebuild: CrossLoad is not supported")
	}
	var sched des.Scheduler
	seedRNG := rng.New(cfg.Seed)
	var q netsim.Queue
	switch cfg.Queue {
	case experiments.DropTail:
		q = netsim.NewDropTail(cfg.Buffer)
	case experiments.RED:
		q = netsim.NewRED(netsim.PaperRED(cfg.BDPPackets), cfg.Capacity, seedRNG.Split())
	default:
		return errors.New("traced rebuild: unknown queue kind")
	}
	ln := jt.main
	link := netsim.NewLink(&sched, cfg.Capacity, cfg.BaseDelay, &tracedQueue{q: q, lane: ln, sched: &sched})
	net := topology.BuildDumbbell(topology.New(&sched), link)
	if cfg.RevJitter > 0 {
		net.SetReverseJitter(cfg.RevJitter, seedRNG.Uint64())
	}
	wrapLink(link, ln, seamArrive)
	tn := &tracedNet{inner: net.Network, lane: ln, send: seamSend, attach: seamAttach}

	tcfg := tfrc.DefaultConfig()
	tcfg.Window = cfg.L
	tcfg.Comprehensive = cfg.Comprehensive
	tcfg.HistoryDiscounting = cfg.HistoryDiscounting
	tcfg.Formula = cfg.TFRCFormula
	flowID := 0
	var tfrcSnd []*tfrc.Sender
	for i := 0; i < cfg.NTFRC; i++ {
		c := tcfg
		c.Seed = seedRNG.Uint64()
		snd, _ := tfrc.NewFlow(&sched, tn, flowID, c, 0, cfg.RevDelay)
		tfrcSnd = append(tfrcSnd, snd)
		staggeredStart(&sched, seedRNG, cfg.Warmup, snd.Start)
		flowID++
	}
	var tcpSnd []*tcp.Sender
	for i := 0; i < cfg.NTCP; i++ {
		snd, _ := tcp.NewFlow(&sched, tn, flowID, tcp.DefaultConfig(), 0, cfg.RevDelay)
		tcpSnd = append(tcpSnd, snd)
		staggeredStart(&sched, seedRNG, cfg.Warmup, snd.Start)
		flowID++
	}
	if cfg.ProbeRate > 0 {
		rttGuess := 2*cfg.BaseDelay + cfg.RevDelay
		p := newProbe(&sched, tn, flowID, cfg.ProbeRate, rttGuess, seedRNG.Uint64(), cfg.RevDelay)
		sched.At(seedRNG.Float64(), p.sendNext)
	}

	jt.drive("RunUntil warmup", func() { sched.RunUntil(cfg.Warmup) })
	for _, s := range tfrcSnd {
		s.ResetStats()
	}
	for _, s := range tcpSnd {
		s.ResetStats()
	}
	jt.drive("RunUntil end", func() { sched.RunUntil(cfg.Warmup + cfg.Duration) })

	jt.events, jt.cascaded = sched.Fired(), sched.Cascaded()
	jt.flow = flowDigest(senderStats(tfrcSnd), senderStats(tcpSnd))
	return net.CheckLeaks()
}

func senderStats[S interface{ Stats() St }, St any](senders []S) []St {
	out := make([]St, 0, len(senders))
	for _, s := range senders {
		out = append(out, s.Stats())
	}
	return out
}

// probe is the paper workload's light Poisson probe: the source
// experiments.RunSim attaches when ProbeRate is set, with the same
// draws (one exponential gap per packet from its own stream).
type probe struct {
	sched    *des.Scheduler
	net      netsim.Network
	flow     int
	rate     float64
	random   *rng.RNG
	nextSeq  int64
	expected int64
	events   *netsim.LossEventCounter
	next     des.Event
}

func newProbe(sched *des.Scheduler, net netsim.Network, flow int, rate, rttGuess float64, seed uint64, revDelay float64) *probe {
	p := &probe{sched: sched, net: net, flow: flow, rate: rate, random: rng.New(seed)}
	p.events = netsim.NewLossEventCounter(func() float64 { return rttGuess })
	p.next = p.sendNext
	net.AttachFlow(flow, netsim.EndpointFunc(func(*netsim.Packet) {}),
		netsim.EndpointFunc(p.receive), 0, revDelay)
	return p
}

func (p *probe) sendNext() {
	pkt := p.net.GetPacket()
	pkt.Flow = p.flow
	pkt.Seq = p.nextSeq
	pkt.Size = 1000
	pkt.SentAt = p.sched.Now()
	pkt.Kind = netsim.Data
	p.net.SendForward(pkt)
	p.nextSeq++
	p.sched.After(p.random.Exp(p.rate), p.next)
}

func (p *probe) receive(pkt *netsim.Packet) {
	if pkt.Kind != netsim.Data {
		return
	}
	for lost := p.expected; lost < pkt.Seq; lost++ {
		p.events.OnLoss(p.sched.Now(), lost)
	}
	if pkt.Seq >= p.expected {
		p.expected = pkt.Seq + 1
	}
}

// graph is the build surface topology.Network and shard.Cluster share.
type graph interface {
	AddNode(name string) topology.NodeID
	AddLink(from, to topology.NodeID, rate, delay float64, queue netsim.Queue) topology.LinkID
	SetRoute(flow int, hops ...topology.LinkID)
	SetDefaultRoute(hops ...topology.LinkID)
	SetReverseRoute(flow int, hops ...topology.LinkID)
	SetReverseJitter(j float64, seed uint64)
	Link(id topology.LinkID) *netsim.Link
	Links() int
	LinkSched(id topology.LinkID) *des.Scheduler
	ReserveFlows(max int)
	CheckLeaks() error
}

// topoEngine is one of the two executors a multi-hop job runs on, with
// the traced wrappers placed on it.
type topoEngine struct {
	g       graph
	net     *topology.Network // serial engine
	sched   *des.Scheduler    // serial engine
	cluster *shard.Cluster    // sharded engine
	k       int
	jt      *jobTrace
	queues  []*tracedQueue
	// nets[i] is the traced network of lane i.
	nets []*tracedNet
}

func newTopoEngine(shards int, jt *jobTrace) *topoEngine {
	e := &topoEngine{jt: jt}
	if shards > 1 {
		e.cluster = shard.New()
		e.g, e.k = e.cluster, shards
		return e
	}
	e.sched = &des.Scheduler{}
	e.net = topology.New(e.sched)
	e.g = e.net
	e.nets = []*tracedNet{{inner: e.net, lane: jt.main, send: seamSend, attach: seamAttach}}
	return e
}

func (e *topoEngine) addLink(from, to topology.NodeID, rate, delay float64, q netsim.Queue) topology.LinkID {
	tq := &tracedQueue{q: q}
	e.queues = append(e.queues, tq)
	return e.g.AddLink(from, to, rate, delay, tq)
}

// laneOf returns the lane of the event loop owning a scheduler.
func (e *topoEngine) laneOf(s *des.Scheduler) (*lane, *tracedNet) {
	if e.cluster == nil {
		return e.jt.main, e.nets[0]
	}
	for i := 0; i < e.cluster.Shards(); i++ {
		if e.cluster.Shard(i).Sched() == s {
			return e.jt.lanes[i], e.nets[i]
		}
	}
	panic("traced rebuild: scheduler owned by no shard")
}

// freeze ends graph declaration (partitioning the cluster) and wraps
// every queue and link on the lane of the event loop that owns it.
func (e *topoEngine) freeze() {
	arrive := seamArrive
	if e.cluster != nil {
		e.cluster.Partition(e.k)
		e.jt.lanes, e.jt.shardLanes = nil, true
		for i := 0; i < e.cluster.Shards(); i++ {
			ln := newLane()
			e.jt.lanes = append(e.jt.lanes, ln)
			e.nets = append(e.nets, &tracedNet{inner: e.cluster.Shard(i), lane: ln,
				send: seamShardSend, attach: seamShardAttach})
		}
		arrive = seamShardArrive
	}
	for id, tq := range e.queues {
		s := e.g.LinkSched(topology.LinkID(id))
		tq.lane, _ = e.laneOf(s)
		tq.sched = s
		wrapLink(e.g.Link(topology.LinkID(id)), tq.lane, arrive)
	}
}

// flowEnv resolves a flow's endpoint placement, with traced networks.
func (e *topoEngine) flowEnv(flow int) (*des.Scheduler, netsim.Network, *des.Scheduler, netsim.Network) {
	if e.cluster == nil {
		return e.sched, e.nets[0], e.sched, e.nets[0]
	}
	snd, rcv := e.cluster.FlowEnv(flow)
	_, sn := e.laneOf(snd.Sched())
	rl, rn := e.laneOf(rcv.Sched())
	sn.rcvLane = rl
	return snd.Sched(), sn, rcv.Sched(), rn
}

func (e *topoEngine) run(name string, t float64) {
	if e.cluster == nil {
		e.jt.drive(name, func() { e.sched.RunUntil(t) })
		return
	}
	e.jt.drive(name, func() { e.cluster.Run(t) })
	e.jt.windows += e.cluster.Shard(0).Snapshot().Window
}

// finish reads the engine's counters into the job trace.
func (e *topoEngine) finish() {
	jt := e.jt
	if e.cluster == nil {
		jt.events, jt.cascaded = e.sched.Fired(), e.sched.Cascaded()
		return
	}
	jt.events = e.cluster.Fired()
	for i := 0; i < e.cluster.Shards(); i++ {
		sn := e.cluster.Shard(i).Snapshot()
		jt.cascaded += e.cluster.Shard(i).Sched().Cascaded()
		jt.handoffs += sn.Handoffs
		jt.shardFired = append(jt.shardFired, e.cluster.Shard(i).Sched().Fired())
		jt.barrierWait = append(jt.barrierWait, sn.BarrierWait)
	}
}

// tracedHost is the churn engine's host on the serial engine: endpoint
// environments resolve to the traced network, live attaches and
// detaches run inside spans.
type tracedHost struct{ e *topoEngine }

func (h tracedHost) RouteEnv([]topology.LinkID) (*des.Scheduler, netsim.Network, *des.Scheduler, netsim.Network) {
	return h.e.sched, h.e.nets[0], h.e.sched, h.e.nets[0]
}

func (h tracedHost) AttachLive(flow int, sender, receiver netsim.Endpoint, fwdHops, revHops []topology.LinkID, fwdExtra, revDelay float64) {
	ln := h.e.jt.main
	s, r := wrapEndpoint(sender, ln, seamCBRSend), wrapEndpoint(receiver, ln, seamCBRRecv)
	ln.begin(seamLiveAttach)
	h.e.net.AttachFlowOn(flow, s, r, fwdHops, revHops, fwdExtra, revDelay)
	ln.end()
}

func (h tracedHost) Lifecycle() arrivals.Lifecycle { return tracedLifecycle(h) }

type tracedLifecycle struct{ e *topoEngine }

func (l tracedLifecycle) WatchFlows(lo, count int, onQuiet func(flow int)) {
	l.e.net.WatchFlows(lo, count, onQuiet)
}

func (l tracedLifecycle) DetachFlow(flow int) {
	ln := l.e.jt.main
	ln.begin(seamDetach)
	l.e.net.DetachFlow(flow)
	ln.end()
}

func (l tracedLifecycle) InFlight(flow int) int { return l.e.net.InFlight(flow) }

// tracedTopo rebuilds experiments.RunTopoSim for the configurations the
// workloads use.
func tracedTopo(cfg experiments.TopoSimConfig, jt *jobTrace) error {
	if cfg.Watch != nil || cfg.ForceEpochs > 1 || cfg.RTTSpread > 0 {
		return errors.New("traced rebuild: Watch, ForceEpochs and RTTSpread are not supported")
	}
	e := newTopoEngine(cfg.Shards, jt)
	seedRNG := rng.New(cfg.Seed)
	nodes := make([]topology.NodeID, cfg.Hops+1)
	for i := range nodes {
		nodes[i] = e.g.AddNode(fmt.Sprintf("n%d", i))
	}
	route := make([]topology.LinkID, cfg.Hops)
	for i := range route {
		route[i] = e.addLink(nodes[i], nodes[i+1], cfg.Capacity, cfg.HopDelay, netsim.NewDropTail(cfg.Buffer))
	}
	e.g.SetDefaultRoute(route...)
	var revRoute []topology.LinkID
	if cfg.MirrorRev {
		revRoute = make([]topology.LinkID, cfg.Hops)
		for i := range revRoute {
			revRoute[i] = e.addLink(nodes[cfg.Hops-i], nodes[cfg.Hops-i-1],
				cfg.Capacity, cfg.HopDelay, netsim.NewUnbounded())
		}
	}
	if cfg.RevJitter > 0 {
		e.g.SetReverseJitter(cfg.RevJitter, seedRNG.Uint64())
	}
	e.freeze()
	if _, err := fault.Arm(e.g, cfg.Faults); err != nil {
		return fmt.Errorf("invalid fault plan: %w", err)
	}
	for id := 0; id < e.g.Links(); id++ {
		ln, _ := e.laneOf(e.g.LinkSched(topology.LinkID(id)))
		wrapFault(e.g.Link(topology.LinkID(id)), ln)
	}

	tcfg := tfrc.DefaultConfig()
	tcfg.Window = cfg.L
	tcfg.Comprehensive = cfg.Comprehensive
	flowID := 0
	var tfrcSnd []*tfrc.Sender
	for i := 0; i < cfg.NTFRC; i++ {
		c := tcfg
		c.Seed = seedRNG.Uint64()
		if cfg.MirrorRev {
			e.g.SetReverseRoute(flowID, revRoute...)
		}
		ss, sn, rs, rn := e.flowEnv(flowID)
		snd, _ := tfrc.NewFlowOn(ss, sn, rs, rn, flowID, c, cfg.AccessDelay, cfg.RevDelay)
		tfrcSnd = append(tfrcSnd, snd)
		staggeredStart(ss, seedRNG, cfg.Warmup, snd.Start)
		flowID++
	}
	var tcpSnd, crossSnd []*tcp.Sender
	for i := 0; i < cfg.NTCP; i++ {
		if cfg.MirrorRev {
			e.g.SetReverseRoute(flowID, revRoute...)
		}
		ss, sn, rs, rn := e.flowEnv(flowID)
		snd, _ := tcp.NewFlowOn(ss, sn, rs, rn, flowID, tcp.DefaultConfig(), cfg.AccessDelay, cfg.RevDelay)
		tcpSnd = append(tcpSnd, snd)
		staggeredStart(ss, seedRNG, cfg.Warmup, snd.Start)
		flowID++
	}
	for h := 0; h < cfg.Hops; h++ {
		for i := 0; i < cfg.CrossPerHop; i++ {
			e.g.SetRoute(flowID, route[h])
			ss, sn, rs, rn := e.flowEnv(flowID)
			snd, _ := tcp.NewFlowOn(ss, sn, rs, rn, flowID, tcp.DefaultConfig(), 0, cfg.CrossRevDelay)
			crossSnd = append(crossSnd, snd)
			staggeredStart(ss, seedRNG, cfg.Warmup, snd.Start)
			flowID++
		}
	}
	if len(cfg.Churn) > 0 {
		if e.cluster != nil {
			return errors.New("traced rebuild: churn on the sharded engine is not supported")
		}
		baseRTT := 2*(float64(cfg.Hops)*cfg.HopDelay+cfg.AccessDelay) + cfg.RevDelay
		classes := make([]arrivals.Class, len(cfg.Churn))
		for i, sp := range cfg.Churn {
			cl := arrivals.Class{Spec: sp, FwdHops: route, FwdExtra: cfg.AccessDelay, RevDelay: cfg.RevDelay}
			if sp.Reverse {
				cl.FwdHops = revRoute
			}
			switch sp.Proto {
			case arrivals.TFRC:
				c := tcfg
				c.IdleStop = 2
				cl.TFRC = c
			case arrivals.TCP:
				cl.TCP = tcp.DefaultConfig()
			case arrivals.CBR:
				cl.CBRSize = 1000
				cl.CBRRTT = baseRTT
			}
			classes[i] = cl
		}
		churn := arrivals.NewEngine(tracedHost{e}, flowID, classes)
		lo, count := churn.FlowRange()
		e.g.ReserveFlows(lo + count)
		churn.Arm()
	}

	e.run("RunUntil warmup", cfg.Warmup)
	for _, s := range tfrcSnd {
		s.ResetStats()
	}
	for _, s := range tcpSnd {
		s.ResetStats()
	}
	for _, s := range crossSnd {
		s.ResetStats()
	}
	e.run("RunUntil end", cfg.Warmup+cfg.Duration)
	e.finish()
	jt.flow = flowDigest(senderStats(tfrcSnd), senderStats(tcpSnd))
	return e.g.CheckLeaks()
}

// runTraced executes the traced pass on a pool of the workload's shape,
// checks every job against the untraced report, and summarizes the
// per-layer figures over the jobs that match. The span store is written
// to spansPath.
func runTraced(w *workload, expect *passReport, spansPath string) (*passReport, error) {
	want := map[string]jobResult{}
	for _, j := range expect.Jobs {
		want[j.Name] = j
	}
	ov := calibrate()
	traces := make([]*jobTrace, len(w.jobs))
	jobs := make([]runner.Job, len(w.jobs))
	for i, j := range w.jobs {
		jobs[i] = runner.Job{Name: j.name, Run: func(context.Context) any {
			traces[i] = runTracedJob(i, j)
			return nil
		}}
	}
	start := time.Now()
	if _, err := runner.NewPool(w.workers).Execute(context.Background(), jobs); err != nil {
		return nil, fmt.Errorf("traced %s: %w", w.name, err)
	}
	rep := &passReport{Wall: time.Since(start).Seconds(), Workers: w.workers}
	var kept []*jobTrace
	for _, jt := range traces {
		r := jobResult{Name: jt.name, Events: jt.events, FlowDigest: jt.flow, Err: jt.err}
		u, ok := want[jt.name]
		switch {
		case r.Err != "":
		case !ok:
			r.Err = "no untraced run of this job"
		case u.Events != jt.events || u.FlowDigest != jt.flow:
			r.Err = fmt.Sprintf("traced run fired %d events (flow digest %s), untraced %d (%s)",
				jt.events, jt.flow, u.Events, u.FlowDigest)
		default:
			kept = append(kept, jt)
		}
		rep.Jobs = append(rep.Jobs, r)
	}
	rep.Layer = summarize(kept, ov)
	if err := writeSpans(spansPath, w.name, ov, traces); err != nil {
		return nil, err
	}
	return rep, nil
}

// runTracedJob runs one rebuilt job inside a job-level span.
func runTracedJob(id int, j job) (jt *jobTrace) {
	jt = newJobTrace(id, j.name)
	start := now()
	defer func() {
		if p := recover(); p != nil {
			jt.err = fmt.Sprint(p)
		}
		jt.spans = append([]span{{Name: "job " + j.name, Start: start, End: now(), Parent: -1, Job: id}}, jt.spans...)
	}()
	var err error
	if j.sim != nil {
		err = tracedSim(*j.sim, jt)
	} else {
		err = tracedTopo(*j.topo, jt)
	}
	if err != nil {
		jt.err = err.Error()
	}
	return jt
}
