package arrivals

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// serialHost adapts a plain serial topology.Network to the Host seam,
// the way the experiments serial executor does.
type serialHost struct {
	sched *des.Scheduler
	net   *topology.Network
}

func (h *serialHost) RouteEnv([]topology.LinkID) (*des.Scheduler, netsim.Network, *des.Scheduler, netsim.Network) {
	return h.sched, h.net, h.sched, h.net
}

func (h *serialHost) AttachLive(flow int, snd, rcv netsim.Endpoint, fwd, rev []topology.LinkID, fwdExtra, revDelay float64) {
	h.net.AttachFlowOn(flow, snd, rcv, fwd, rev, fwdExtra, revDelay)
}

func (h *serialHost) Lifecycle() Lifecycle { return h.net }

// noReclaimHost is the same network without a lifecycle surface — the
// sharded executor's shape, where churn flows are never detached.
type noReclaimHost struct{ serialHost }

func (h *noReclaimHost) Lifecycle() Lifecycle { return nil }

// testNet builds a one-link serial network and returns its route.
func testNet(sched *des.Scheduler) (*topology.Network, []topology.LinkID) {
	net := topology.New(sched)
	a := net.AddNode("a")
	b := net.AddNode("b")
	link := net.AddLink(a, b, 1.25e6, 0.01, netsim.NewDropTail(64))
	return net, []topology.LinkID{link}
}

func tfrcSpec(seed uint64) Spec {
	return Spec{
		Name: "t", Proto: TFRC,
		Gap:  Gap{Kind: Poisson, Rate: 40},
		Size: Size{Kind: Fixed, Packets: 20},
		Stop: 30, MaxArrivals: 2000, Seed: seed,
	}
}

func baseTFRC() tfrc.Config {
	cfg := tfrc.DefaultConfig()
	cfg.IdleStop = 2
	return cfg
}

// armEngine builds an engine of the given classes over the route on the
// host, reserves its flow ids on the network and arms it.
func armEngine(host Host, net *topology.Network, route []topology.LinkID, specs []Spec) *Engine {
	classes := make([]Class, len(specs))
	for i, sp := range specs {
		cl := Class{Spec: sp, FwdHops: route, FwdExtra: 0.005, RevDelay: 0.025}
		switch sp.Proto {
		case TFRC:
			cl.TFRC = baseTFRC()
		case TCP:
			cl.TCP = tcp.DefaultConfig()
		case CBR:
			cl.CBRSize = 1000
			cl.CBRRTT = 0.06
		}
		classes[i] = cl
	}
	eng := NewEngine(host, 0, classes)
	lo, count := eng.FlowRange()
	net.ReserveFlows(lo + count)
	eng.Arm()
	return eng
}

func runEngine(t *testing.T, host Host, net *topology.Network, route []topology.LinkID, specs []Spec, end float64) (*Engine, []ClassResult) {
	t.Helper()
	eng := armEngine(host, net, route, specs)
	s, _, _, _ := host.RouteEnv(route)
	s.RunUntil(end)
	return eng, eng.Results(end)
}

func TestFlowSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := FlowSeed(42, i)
		if s != FlowSeed(42, i) {
			t.Fatal("FlowSeed not deterministic")
		}
		if seen[s] {
			t.Fatalf("FlowSeed collision at i=%d", i)
		}
		seen[s] = true
	}
	if FlowSeed(1, 0) == FlowSeed(2, 0) {
		t.Fatal("FlowSeed ignores the class seed")
	}
}

func TestGapDraws(t *testing.T) {
	r := rng.New(7)
	n := 20000
	sum := 0.0
	g := Gap{Kind: Poisson, Rate: 50}
	for i := 0; i < n; i++ {
		d := g.draw(r)
		if d < 0 {
			t.Fatal("negative gap")
		}
		sum += d
	}
	if mean := sum / float64(n); math.Abs(mean-0.02) > 0.002 {
		t.Fatalf("Poisson mean gap = %v, want ~0.02", mean)
	}
	w := Gap{Kind: Weibull, Shape: 0.6, Scale: 0.02}
	for i := 0; i < 1000; i++ {
		if d := w.draw(r); d < 0 {
			t.Fatal("negative Weibull gap")
		}
	}
}

func TestSizeDraws(t *testing.T) {
	r := rng.New(7)
	f := Size{Kind: Fixed, Packets: 9}
	if f.draw(r) != 9 {
		t.Fatal("fixed size not fixed")
	}
	p := Size{Kind: Pareto, Shape: 1.2, MinPackets: 4, CapPackets: 50}
	for i := 0; i < 5000; i++ {
		n := p.draw(r)
		if n < 4 || n > 50 {
			t.Fatalf("Pareto draw %d outside [4, 50]", n)
		}
	}
}

func TestValidationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"nil host", func() { NewEngine(nil, 0, []Class{{Spec: tfrcSpec(1)}}) }},
		{"negative first flow", func() {
			NewEngine(&serialHost{}, -1, []Class{{Spec: tfrcSpec(1)}})
		}},
		{"no classes", func() { NewEngine(&serialHost{}, 0, nil) }},
		{"no name", func() {
			sp := tfrcSpec(1)
			sp.Name = ""
			sp.validate()
		}},
		{"no arrivals", func() {
			sp := tfrcSpec(1)
			sp.MaxArrivals = 0
			sp.validate()
		}},
		{"bad window", func() {
			sp := tfrcSpec(1)
			sp.Stop = 0
			sp.validate()
		}},
		{"bad poisson", func() { Gap{Kind: Poisson}.validate() }},
		{"bad weibull", func() { Gap{Kind: Weibull, Shape: 1}.validate() }},
		{"bad gap kind", func() { Gap{Kind: GapKind(9), Rate: 1}.validate() }},
		{"bad fixed size", func() { Size{Kind: Fixed}.validate() }},
		{"bad pareto", func() { Size{Kind: Pareto, Shape: 1}.validate() }},
		{"cap below min", func() {
			Size{Kind: Pareto, Shape: 1, MinPackets: 8, CapPackets: 4}.validate()
		}},
		{"bad size kind", func() { Size{Kind: SizeKind(9), Packets: 1}.validate() }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestEngineClassValidation(t *testing.T) {
	var sched des.Scheduler
	net, route := testNet(&sched)
	host := &serialHost{sched: &sched, net: net}
	expectPanic := func(name string, cl Class) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		NewEngine(host, 0, []Class{cl})
	}
	expectPanic("no route", Class{Spec: tfrcSpec(1)})
	expectPanic("negative delay", Class{Spec: tfrcSpec(1), FwdHops: route, FwdExtra: -1})
	expectPanic("tfrc without idlestop", Class{Spec: tfrcSpec(1), FwdHops: route})
	cbr := tfrcSpec(1)
	cbr.Proto = CBR
	expectPanic("cbr without rate", Class{Spec: cbr, FwdHops: route})
	bad := tfrcSpec(1)
	bad.Proto = Proto(9)
	expectPanic("unknown proto", Class{Spec: bad, FwdHops: route})
}

func TestProtoString(t *testing.T) {
	if TFRC.String() != "tfrc" || TCP.String() != "tcp" || CBR.String() != "cbr" || Proto(9).String() != "?" {
		t.Fatal("Proto.String labels wrong")
	}
}

// The serial engine must complete transfers, detach quiet flows and
// recycle their endpoints: constructions bounded by the concurrency
// peak, far below the arrival count, with the freelist invariant intact
// and every recycled pair provably dead (no live timers).
func TestServeReclaimRecycle(t *testing.T) {
	protos := []struct {
		name string
		mut  func(*Spec)
	}{
		{"tfrc", func(sp *Spec) { sp.Proto = TFRC }},
		{"tcp", func(sp *Spec) { sp.Proto = TCP }},
		{"cbr", func(sp *Spec) {
			sp.Proto = CBR
			sp.CBRRate = 200
			sp.Size = Size{Kind: Fixed, Packets: 5}
		}},
	}
	for _, pc := range protos {
		t.Run(pc.name, func(t *testing.T) {
			var sched des.Scheduler
			net, route := testNet(&sched)
			host := &serialHost{sched: &sched, net: net}
			sp := tfrcSpec(11)
			pc.mut(&sp)
			eng, res := runEngine(t, host, net, route, []Spec{sp}, 40)
			r := res[0]
			if r.Arrivals < 100 {
				t.Fatalf("only %d arrivals", r.Arrivals)
			}
			if r.Completions == 0 {
				t.Fatal("no completions")
			}
			if r.Reclaimed == 0 {
				t.Fatal("no flows reclaimed on the serial engine")
			}
			if r.Constructions >= r.Arrivals/2 {
				t.Fatalf("pool not reused: %d constructions for %d arrivals",
					r.Constructions, r.Arrivals)
			}
			if r.Constructions < int64(r.Peak) {
				t.Fatalf("constructions %d below peak population %d",
					r.Constructions, r.Peak)
			}
			if err := net.CheckLeaks(); err != nil {
				t.Fatalf("freelist invariant broken after churn: %v", err)
			}
			cs := eng.classes[0]
			// Every reclaimed flow: detached (InFlight accounting zeroed),
			// out of the live table, and its pooled endpoints hold no live
			// timers.
			for i := 0; i < cs.next; i++ {
				if cs.transfer(i) == nil && net.InFlight(cs.firstFlow+i) != 0 {
					t.Fatalf("reclaimed flow %d still has packets in flight", cs.firstFlow+i)
				}
			}
			// The live table holds exactly the transfers not yet reclaimed,
			// its freed entries hold no endpoints, and it grew only at a new
			// peak: one entry per pair ever built.
			if got, want := len(cs.live)-len(cs.free), int(r.Arrivals-r.Reclaimed); got != want {
				t.Fatalf("live table holds %d transfers, %d arrived and not reclaimed", got, want)
			}
			for _, k := range cs.free {
				if cs.live[k] != (transfer{}) {
					t.Fatalf("freed live entry %d still holds a transfer", k)
				}
			}
			if int64(len(cs.live)) != r.Constructions {
				t.Fatalf("live table has %d entries for %d pairs built", len(cs.live), r.Constructions)
			}
			for _, p := range cs.tfrcPool {
				if !p.snd.Quiesced() || !p.rcv.Idle() {
					t.Fatal("pooled TFRC pair holds a live timer")
				}
			}
			for _, p := range cs.tcpPool {
				if !p.snd.Quiesced() {
					t.Fatal("pooled TCP sender holds a live timer")
				}
			}
			for _, p := range cs.cbrPool {
				if !p.Quiesced() {
					t.Fatal("pooled CBR probe holds a live timer")
				}
			}
		})
	}
}

// Recycling must be invisible: a host that never reclaims (the sharded
// executor's shape) must produce the identical arrival/completion
// trajectory and Palm statistics, with constructions == arrivals.
func TestReclaimInvisible(t *testing.T) {
	run := func(reclaim bool) []ClassResult {
		var sched des.Scheduler
		net, route := testNet(&sched)
		base := serialHost{sched: &sched, net: net}
		var host Host = &base
		if !reclaim {
			host = &noReclaimHost{base}
		}
		_, res := runEngine(t, host, net, route, []Spec{tfrcSpec(23)}, 40)
		return res
	}
	with := run(true)[0]
	without := run(false)[0]
	if without.Reclaimed != 0 || without.Constructions != without.Arrivals {
		t.Fatalf("no-lifecycle host reclaimed anyway: %+v", without)
	}
	if with.Reclaimed == 0 {
		t.Fatal("lifecycle host never reclaimed")
	}
	if with.Arrivals != without.Arrivals || with.Completions != without.Completions ||
		with.Peak != without.Peak || with.ActiveAtEnd != without.ActiveAtEnd ||
		with.MeanDuration != without.MeanDuration ||
		with.PalmPop != without.PalmPop || with.TimePop != without.TimePop {
		t.Fatalf("recycling changed the trajectory:\nwith    %+v\nwithout %+v", with, without)
	}
}

// Two identical runs must agree bit for bit, and the Palm sums of a
// Poisson class must see PASTA: the population found by arrivals equals
// the time-average population, within Monte Carlo noise.
func TestDeterminismAndPASTA(t *testing.T) {
	run := func() (*Engine, ClassResult) {
		var sched des.Scheduler
		net, route := testNet(&sched)
		host := &serialHost{sched: &sched, net: net}
		// Arrivals run to the very end: a drain tail after Stop would be
		// inside the time average but invisible to the Palm sampling, and
		// the comparison below needs matching windows.
		sp := tfrcSpec(31)
		sp.Stop = 40
		eng, res := runEngine(t, host, net, route, []Spec{sp}, 40)
		return eng, res[0]
	}
	eng, a := run()
	_, b := run()
	if a.Arrivals != b.Arrivals || a.PalmPop != b.PalmPop || a.TimePop != b.TimePop ||
		a.Completions != b.Completions || a.MeanDuration != b.MeanDuration {
		t.Fatalf("replay differs:\n%+v\n%+v", a, b)
	}
	if eng.classes[0].palmN == 0 {
		t.Fatal("no closed palm cycle")
	}
	if a.TimePop <= 0 {
		t.Fatal("no time-average population")
	}
	ratio := a.PalmPop / a.TimePop
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("PASTA violated for Poisson arrivals: palm/time = %v", ratio)
	}
	// One Palm sample per arrival: the closed cycles plus the last one,
	// which Results closes at the end of the run.
	if got := eng.classes[0].palmN + 1; got != int(a.Arrivals) {
		t.Fatalf("palm sums hold %d cycles for %d arrivals", got, a.Arrivals)
	}
}

// Start/Stop and MaxArrivals must bound the class, and multiple classes
// must get disjoint contiguous flow blocks.
func TestWindowsAndFlowBlocks(t *testing.T) {
	var sched des.Scheduler
	net, route := testNet(&sched)
	host := &serialHost{sched: &sched, net: net}
	early := tfrcSpec(41)
	early.Name = "early"
	early.Start = 0
	early.Stop = 5
	capped := tfrcSpec(42)
	capped.Name = "capped"
	capped.MaxArrivals = 7
	eng, res := runEngine(t, host, net, route, []Spec{early, capped}, 40)
	lo, count := eng.FlowRange()
	if lo != 0 || count != early.MaxArrivals+capped.MaxArrivals {
		t.Fatalf("flow range = (%d, %d)", lo, count)
	}
	if eng.classes[1].firstFlow != early.MaxArrivals {
		t.Fatalf("second class starts at %d", eng.classes[1].firstFlow)
	}
	// ~40 arrivals/s for 5 s, Monte Carlo slack.
	if res[0].Arrivals < 100 || res[0].Arrivals > 350 {
		t.Fatalf("windowed class made %d arrivals, want ~200", res[0].Arrivals)
	}
	if res[1].Arrivals != 7 {
		t.Fatalf("capped class made %d arrivals, want 7", res[1].Arrivals)
	}
	if got, _ := eng.classOf(early.MaxArrivals); got != eng.classes[1] {
		t.Fatal("classOf maps the block boundary to the wrong class")
	}
	if got, _ := eng.classOf(count); got != nil {
		t.Fatal("classOf resolves an id past the block")
	}
	if eng.maybeReclaim(count); false {
		t.Fatal("unreachable")
	}
}

func TestArmTwicePanics(t *testing.T) {
	var sched des.Scheduler
	net, route := testNet(&sched)
	host := &serialHost{sched: &sched, net: net}
	cl := Class{Spec: tfrcSpec(51), FwdHops: route, FwdExtra: 0.005, RevDelay: 0.025, TFRC: baseTFRC()}
	eng := NewEngine(host, 0, []Class{cl})
	lo, count := eng.FlowRange()
	net.ReserveFlows(lo + count)
	eng.Arm()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double Arm")
		}
	}()
	eng.Arm()
}

// Arming sizes nothing by the arrival budget but the arrival index, one
// int32 per budgeted arrival: on a host that never reclaims (the
// sharded executor's shape) a 1,000,000-arrival budget keeps at most
// 4.5 MB reachable. Transfers take memory as they arrive, not before.
func TestArmMemoryIsTheIndexOnly(t *testing.T) {
	var sched des.Scheduler
	net, route := testNet(&sched)
	host := &noReclaimHost{serialHost{sched: &sched, net: net}}
	sp := tfrcSpec(61)
	sp.MaxArrivals = 1_000_000
	cl := Class{Spec: sp, FwdHops: route, FwdExtra: 0.005, RevDelay: 0.025, TFRC: baseTFRC()}
	eng := NewEngine(host, 0, []Class{cl})
	heap := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	before := heap()
	eng.Arm()
	after := heap()
	runtime.KeepAlive(eng)
	if grew := (after - before) / (1 << 20); grew > 4.5 {
		t.Fatalf("Arm on a %d-arrival budget keeps %.1f MB reachable, want at most 4.5", sp.MaxArrivals, grew)
	}
}

// The churn section of a snapshot follows the live transfers, not the
// arrivals served: apart from the live transfers' own records, it is
// the same size after about 4K arrivals of one steady class as after
// about 1K. A record per arrival or per Palm cycle would grow it by
// kilobytes.
func TestSnapshotSectionFlatInArrivals(t *testing.T) {
	var sched des.Scheduler
	net, route := testNet(&sched)
	host := &serialHost{sched: &sched, net: net}
	sp := tfrcSpec(71)
	sp.Stop = 200
	sp.MaxArrivals = 8000
	eng := armEngine(host, net, route, []Spec{sp})
	cs := eng.classes[0]
	// section runs to the given time and returns the arrivals served, the
	// live transfers and the section's size without their records.
	section := func(until float64) (arrivals, live, rest int) {
		sched.RunUntil(until)
		var w checkpoint.Writer
		eng.Checkpoint(w.Codec())
		rest = w.Len()
		for i := 0; i < cs.next; i++ {
			if tr := cs.transfer(i); tr != nil {
				var one checkpoint.Writer
				cs.checkpointTransfer(one.Codec(), i-1)
				rest -= one.Len()
				live++
			}
		}
		return cs.next, live, rest
	}
	a1, l1, rest1 := section(25)
	a4, l4, rest4 := section(100)
	if a1 < 800 || a1 > 1200 || a4 < 3600 || a4 > 4400 {
		t.Fatalf("snapshots after %d and %d arrivals, want about 1K and 4K", a1, a4)
	}
	if l1 == 0 || l4 == 0 {
		t.Fatalf("no live transfer in a snapshot (%d, %d); the test exercises nothing", l1, l4)
	}
	if rest4 != rest1 {
		t.Fatalf("churn section without its %d/%d live transfers is %d B after %d arrivals, %d B after %d",
			l1, l4, rest1, a1, rest4, a4)
	}
}

// A churn section restores onto a freshly armed engine built from the
// same classes: live transfers come back on fresh endpoint pairs with
// their protocol state, the pools refill to their saved depths, and
// saving the restored engine writes the same bytes with the same
// results.
func TestSaveRestoreRoundTrip(t *testing.T) {
	for _, proto := range []Proto{TFRC, TCP, CBR} {
		t.Run(proto.String(), func(t *testing.T) {
			sp := tfrcSpec(81)
			sp.Proto = proto
			sp.CBRRate = 200
			build := func() (*des.Scheduler, *Engine) {
				var sched des.Scheduler
				net, route := testNet(&sched)
				return &sched, armEngine(&serialHost{sched: &sched, net: net}, net, route, []Spec{sp})
			}
			sched, eng := build()
			sched.RunUntil(12)
			var w checkpoint.Writer
			eng.Checkpoint(w.Codec())
			cs := eng.classes[0]
			if len(cs.live)-len(cs.free) == 0 || cs.reclaimed == 0 {
				t.Fatalf("snapshot with %d live transfers and %d reclaimed; the test exercises nothing",
					len(cs.live)-len(cs.free), cs.reclaimed)
			}

			sched2, eng2 := build()
			sched2.Reset()
			sched2.RestoreClock(sched.Now(), sched.Seq(), sched.Fired(), sched.Cascaded())
			r := checkpoint.NewReader(w.Bytes())
			eng2.Checkpoint(r.Codec())
			if err := r.Err(); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if r.Remaining() != 0 {
				t.Fatalf("restore left %d bytes unread", r.Remaining())
			}
			var w2 checkpoint.Writer
			eng2.Checkpoint(w2.Codec())
			if string(w2.Bytes()) != string(w.Bytes()) {
				t.Fatalf("restored engine saves %d bytes that differ from the %d it was restored from", w2.Len(), w.Len())
			}
			if a, b := eng.Results(12)[0], eng2.Results(12)[0]; a != b {
				t.Fatalf("restored results differ:\n%+v\n%+v", a, b)
			}
		})
	}
}

// A churn section that does not fit the rebuilt engine is refused with
// an error: restored before Arm, a different class count, or more
// arrivals than the class's budget.
func TestRestoreRejectsMismatch(t *testing.T) {
	var sched des.Scheduler
	net, route := testNet(&sched)
	host := &serialHost{sched: &sched, net: net}
	sp := tfrcSpec(91)
	eng := armEngine(host, net, route, []Spec{sp})
	sched.RunUntil(5)
	var w checkpoint.Writer
	eng.Checkpoint(w.Codec())

	restore := func(name string, into *Engine) {
		t.Helper()
		r := checkpoint.NewReader(w.Bytes())
		into.Checkpoint(r.Codec())
		if r.Err() == nil {
			t.Errorf("%s: restore succeeded", name)
		}
	}
	fresh := func(specs ...Spec) *Engine {
		var s des.Scheduler
		n, rt := testNet(&s)
		return armEngine(&serialHost{sched: &s, net: n}, n, rt, specs)
	}
	var s des.Scheduler
	n, rt := testNet(&s)
	unarmed := NewEngine(&serialHost{sched: &s, net: n}, 0, []Class{{Spec: sp, FwdHops: rt, TFRC: baseTFRC()}})
	restore("before Arm", unarmed)
	other := sp
	other.Name = "u"
	restore("two classes", fresh(sp, other))
	small := sp
	small.MaxArrivals = 7
	restore("smaller budget", fresh(small))
}
