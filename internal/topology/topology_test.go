package topology

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/netsim"
)

func send(net *Network, flow int, size int) {
	p := net.GetPacket()
	p.Flow = flow
	p.Size = size
	net.SendForward(p)
}

func TestDumbbellForwardAndReverse(t *testing.T) {
	var s des.Scheduler
	link := netsim.NewLink(&s, 1e6, 0.02, netsim.NewDropTail(100))
	d := NewDumbbell(&s, link)
	var got []string
	recv := netsim.EndpointFunc(func(p *netsim.Packet) {
		got = append(got, "recv")
		ack := d.GetPacket()
		ack.Flow = p.Flow
		ack.Kind = netsim.Ack
		d.SendReverse(ack)
	})
	snd := netsim.EndpointFunc(func(p *netsim.Packet) { got = append(got, "ack") })
	d.AttachFlow(1, snd, recv, 0.005, 0.025)
	send(d.Network, 1, 1000)
	s.Run()
	if len(got) != 2 || got[0] != "recv" || got[1] != "ack" {
		t.Fatalf("sequence = %v", got)
	}
	// Base RTT: 0.02 + 0.005 + 0.025 = 0.05.
	if math.Abs(d.BaseRTT(1)-0.05) > 1e-12 {
		t.Fatalf("base rtt = %v", d.BaseRTT(1))
	}
	if err := d.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestDumbbellUnknownFlowDropped(t *testing.T) {
	var s des.Scheduler
	link := netsim.NewLink(&s, 1e6, 0.001, netsim.NewDropTail(10))
	d := NewDumbbell(&s, link)
	send(d.Network, 42, 100)
	s.Run() // must not panic
	if err := d.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestDumbbellDuplicateFlowPanics(t *testing.T) {
	var s des.Scheduler
	d := NewDumbbell(&s, netsim.NewLink(&s, 1e6, 0.001, netsim.NewDropTail(10)))
	e := netsim.EndpointFunc(func(*netsim.Packet) {})
	d.AttachFlow(1, e, e, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate flow")
		}
	}()
	d.AttachFlow(1, e, e, 0, 0)
}

// A three-hop route must deliver in order, after the sum of the hop
// serialization and propagation delays, and touch every link.
func TestMultiHopRouteTiming(t *testing.T) {
	var s des.Scheduler
	net := New(&s)
	n := []NodeID{net.AddNode("s"), net.AddNode("r1"), net.AddNode("r2"), net.AddNode("d")}
	var hops []LinkID
	for i := 0; i < 3; i++ {
		hops = append(hops, net.AddLink(n[i], n[i+1], 1e5, 0.01, netsim.NewDropTail(10)))
	}
	var arrivals []float64
	var seqs []int64
	net.SetRoute(1, hops...)
	net.AttachFlow(1, netsim.EndpointFunc(func(*netsim.Packet) {}),
		netsim.EndpointFunc(func(p *netsim.Packet) {
			arrivals = append(arrivals, s.Now())
			seqs = append(seqs, p.Seq)
		}), 0.005, 0.02)
	for i := 0; i < 3; i++ {
		p := net.GetPacket()
		p.Flow = 1
		p.Seq = int64(i)
		p.Size = 1000
		net.SendForward(p)
	}
	s.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	// First packet: 3 hops × (10 ms serialization + 10 ms propagation)
	// + 5 ms terminal delay = 65 ms; later packets pipeline 10 ms apart.
	want := []float64{0.065, 0.075, 0.085}
	for i := range want {
		if math.Abs(arrivals[i]-want[i]) > 1e-9 {
			t.Fatalf("arrival %d at %v, want %v (all: %v)", i, arrivals[i], want[i], arrivals)
		}
		if seqs[i] != int64(i) {
			t.Fatalf("reordered: %v", seqs)
		}
	}
	for _, h := range hops {
		if net.Link(h).Forwarded != 3 {
			t.Fatalf("link %d forwarded %d", h, net.Link(h).Forwarded)
		}
	}
	if net.Delivered(1) != 3 {
		t.Fatalf("delivered = %d", net.Delivered(1))
	}
	if math.Abs(net.BaseRTT(1)-(0.01*3+0.005+0.02)) > 1e-12 {
		t.Fatalf("base rtt = %v", net.BaseRTT(1))
	}
	if err := net.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

// Flows with disjoint routes only congest their own hops, and packets
// dropped at an inner hop are recycled (the leak invariant holds with
// drops and with packets cut off mid-flight).
func TestLeakInvariantWithDropsAndCutoff(t *testing.T) {
	var s des.Scheduler
	net := New(&s)
	a, b, c := net.AddNode("a"), net.AddNode("b"), net.AddNode("c")
	l0 := net.AddLink(a, b, 1e5, 0.005, netsim.NewDropTail(4))
	l1 := net.AddLink(b, c, 5e4, 0.005, netsim.NewDropTail(2)) // tighter: drops here
	net.SetRoute(1, l0, l1)
	delivered := 0
	net.AttachFlow(1, netsim.EndpointFunc(func(*netsim.Packet) {}),
		netsim.EndpointFunc(func(*netsim.Packet) { delivered++ }), 0, 0.01)
	for i := 0; i < 50; i++ {
		send(net, 1, 1000)
	}
	// Mid-flight check: packets sit in queues, serialization and
	// propagation; nothing may be unaccounted for.
	s.RunUntil(0.05)
	if err := net.CheckLeaks(); err != nil {
		t.Fatalf("mid-flight: %v", err)
	}
	s.Run()
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	drops := net.Link(l0).Queue().(*netsim.DropTail).Drops +
		net.Link(l1).Queue().(*netsim.DropTail).Drops
	if drops == 0 {
		t.Fatal("expected drops on the tight inner hop")
	}
	if int64(delivered)+drops != 50 {
		t.Fatalf("delivered %d + dropped %d != 50", delivered, drops)
	}
	if err := net.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
	if net.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after full drain", net.Outstanding())
	}
}

func TestReverseJitterBounds(t *testing.T) {
	var s des.Scheduler
	d := NewDumbbell(&s, netsim.NewLink(&s, 1e9, 0, netsim.NewDropTail(10)))
	d.SetReverseJitter(0.2, 42)
	var arrivals []float64
	d.AttachFlow(1, netsim.EndpointFunc(func(*netsim.Packet) { arrivals = append(arrivals, s.Now()) }),
		netsim.EndpointFunc(func(*netsim.Packet) {}), 0, 0.1)
	for i := 0; i < 200; i++ {
		p := d.GetPacket()
		p.Flow = 1
		p.Kind = netsim.Ack
		d.SendReverse(p)
	}
	s.Run()
	if len(arrivals) != 200 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	lo, hi := arrivals[0], arrivals[0]
	for _, a := range arrivals {
		lo, hi = math.Min(lo, a), math.Max(hi, a)
	}
	if lo < 0.08-1e-12 || hi > 0.12+1e-12 {
		t.Fatalf("jittered delays outside [0.08, 0.12]: [%v, %v]", lo, hi)
	}
	if hi-lo < 0.01 {
		t.Fatalf("jitter did not spread delays: [%v, %v]", lo, hi)
	}
}

func TestTopologyPanics(t *testing.T) {
	var s des.Scheduler
	fresh := func() (*Network, LinkID) {
		n := New(&s)
		a, b := n.AddNode("a"), n.AddNode("b")
		id := n.AddLink(a, b, 1e6, 0, netsim.NewDropTail(1))
		return n, id
	}
	e := netsim.EndpointFunc(func(*netsim.Packet) {})
	cases := []func(){
		func() { New(nil) },
		func() { NewDumbbell(nil, nil) },
		func() {
			n, _ := fresh()
			n.AdoptLink(nil, 0, 1)
		},
		func() {
			n, _ := fresh()
			n.AddLink(0, 7, 1e6, 0, netsim.NewDropTail(1)) // node out of range
		},
		func() {
			n, _ := fresh()
			n.SetRoute(1) // empty route
		},
		func() {
			n, id := fresh()
			n.SetRoute(1, id, id) // discontiguous: link ends at b, restarts at a
		},
		func() {
			n, _ := fresh()
			n.SetRoute(1, 9) // unknown link
		},
		func() {
			n, id := fresh()
			n.SetRoute(1, id)
			n.AttachFlow(1, nil, e, 0, 0) // nil endpoint
		},
		func() {
			n, id := fresh()
			n.SetRoute(1, id)
			n.AttachFlow(1, e, e, -1, 0) // negative delay
		},
		func() {
			n, _ := fresh()
			n.AttachFlow(1, e, e, 0, 0) // no route, no default
		},
		func() {
			n, _ := fresh()
			p := n.GetPacket()
			p.Flow = 3
			n.SendForward(p) // unrouted flow, no default link
		},
		func() {
			n, _ := fresh()
			p := n.GetPacket()
			p.Flow = 9
			n.SendReverse(p) // unknown flow
		},
		func() {
			n, _ := fresh()
			n.SetReverseJitter(1.5, 1)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestNetworkResetReuse checks the arena property: a network Reset and
// rebuilt in place must behave identically to a fresh one — same
// deliveries, same leak accounting — with the packet and flow-state
// pools carried across the reset.
func TestNetworkResetReuse(t *testing.T) {
	run := func(s *des.Scheduler, n *Network) (delivered int64, pooled int) {
		a := n.AddNode("a")
		b := n.AddNode("b")
		c := n.AddNode("c")
		l1 := n.AddLink(a, b, 1e6, 0.01, netsim.NewDropTail(4))
		l2 := n.AddLink(b, c, 1e6, 0.01, netsim.NewDropTail(4))
		n.SetDefaultRoute(l1, l2)
		recv := netsim.EndpointFunc(func(*netsim.Packet) {})
		n.AttachFlow(1, recv, recv, 0.002, 0.005)
		for i := 0; i < 20; i++ {
			send(n, 1, 1000)
		}
		s.Run()
		if err := n.CheckLeaks(); err != nil {
			t.Fatal(err)
		}
		return n.Delivered(1), len(n.doms[0].pool)
	}

	var s1 des.Scheduler
	fresh := New(&s1)
	wantDelivered, _ := run(&s1, fresh)

	var s2 des.Scheduler
	reused := New(&s2)
	run(&s2, reused)
	s2.Reset()
	reused.Reset()
	if reused.Nodes() != 0 || reused.Links() != 0 || len(reused.flows) != 0 {
		t.Fatalf("Reset left graph state: %d nodes, %d links, %d flows",
			reused.Nodes(), reused.Links(), len(reused.flows))
	}
	if reused.Outstanding() != 0 || reused.InNetwork() != 0 {
		t.Fatalf("Reset left freelist accounting: outstanding=%d in-network=%d",
			reused.Outstanding(), reused.InNetwork())
	}
	if len(reused.doms[0].pool) == 0 || len(reused.doms[0].fsPool) == 0 {
		t.Fatal("Reset discarded the packet or flow-state pool")
	}
	gotDelivered, pooled := run(&s2, reused)
	if gotDelivered != wantDelivered {
		t.Fatalf("reused network delivered %d packets, fresh delivered %d",
			gotDelivered, wantDelivered)
	}
	if pooled == 0 {
		t.Fatal("second run did not recycle packets through the carried-over pool")
	}
}
