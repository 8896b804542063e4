package topology

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/netsim"
)

func TestCrossTrafficMeanRate(t *testing.T) {
	var s des.Scheduler
	link := netsim.NewLink(&s, 1e9, 0, netsim.NewDropTail(1<<20))
	net := NewDumbbell(&s, link)
	ct := netsim.NewCrossTraffic(&s, net, 99, 1.25e6, 20, 1.5, 0.05, 1000, 7)
	ct.Start()
	s.RunUntil(2000)
	offered := float64(ct.PacketsSent) * 1000 / 2000
	want := ct.MeanRate()
	// Pareto bursts converge slowly; accept 25%.
	if math.Abs(offered-want)/want > 0.25 {
		t.Fatalf("offered %v B/s, analytic mean %v", offered, want)
	}
	if ct.PacketsSent == 0 {
		t.Fatal("no packets sent")
	}
}

func TestCrossTrafficUnattachedFlowHarmless(t *testing.T) {
	// Cross-traffic packets terminate at the bottleneck without a
	// receiver and must not panic or leak into other flows.
	var s des.Scheduler
	link := netsim.NewLink(&s, 1e6, 0.001, netsim.NewDropTail(50))
	net := NewDumbbell(&s, link)
	got := 0
	net.AttachFlow(1, netsim.EndpointFunc(func(*netsim.Packet) {}),
		netsim.EndpointFunc(func(p *netsim.Packet) {
			if p.Flow != 1 {
				t.Errorf("foreign packet leaked: flow %d", p.Flow)
			}
			got++
		}), 0, 0)
	ct := netsim.NewCrossTraffic(&s, net, 99, 5e5, 10, 1.5, 0.02, 1000, 8)
	ct.Start()
	probe := net.GetPacket()
	probe.Flow = 1
	probe.Size = 100
	net.SendForward(probe)
	s.RunUntil(5)
	if got != 1 {
		t.Fatalf("flow 1 deliveries = %d, want 1", got)
	}
	if err := net.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossTrafficBursty(t *testing.T) {
	// The on/off structure must produce idle gaps much longer than the
	// in-burst gaps.
	var s des.Scheduler
	link := netsim.NewLink(&s, 1e9, 0, netsim.NewDropTail(1<<20))
	net := NewDumbbell(&s, link)
	ct := netsim.NewCrossTraffic(&s, net, 99, 1.25e6, 50, 1.5, 0.1, 1000, 9)
	var times []float64
	inner := link.Deliver
	link.Deliver = func(p *netsim.Packet) {
		times = append(times, s.Now())
		inner(p)
	}
	ct.Start()
	s.RunUntil(100)
	if len(times) < 100 {
		t.Fatalf("too few packets: %d", len(times))
	}
	inBurst := 1000.0 / 1.25e6
	long := 0
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] > 10*inBurst {
			long++
		}
	}
	if long == 0 {
		t.Fatal("no off periods observed")
	}
	if long > len(times)/2 {
		t.Fatalf("no bursts: %d of %d gaps are long", long, len(times))
	}
}

func TestCrossTrafficOverRoutedSink(t *testing.T) {
	// A cross flow attached as a sink over a chosen sub-path is carried
	// to the route's end and recycled there, congesting only its hops.
	var s des.Scheduler
	net := New(&s)
	a, b, c := net.AddNode("a"), net.AddNode("b"), net.AddNode("c")
	l0 := net.AddLink(a, b, 1e9, 0.001, netsim.NewDropTail(1000))
	net.AddLink(b, c, 1e9, 0.001, netsim.NewDropTail(1000))
	net.AttachSink(99, l0) // first hop only
	ct := netsim.NewCrossTraffic(&s, net, 99, 1e6, 10, 1.5, 0.05, 1000, 11)
	ct.Start()
	s.RunUntil(20)
	if ct.PacketsSent == 0 {
		t.Fatal("no packets sent")
	}
	if net.Delivered(99) == 0 {
		t.Fatal("sink flow delivered nothing")
	}
	if fwd := net.Link(1).Forwarded(); fwd != 0 {
		t.Fatalf("second hop forwarded %d packets of a first-hop sink flow", fwd)
	}
	if err := net.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossTrafficPanics(t *testing.T) {
	var s des.Scheduler
	net := NewDumbbell(&s, netsim.NewLink(&s, 1e6, 0, netsim.NewDropTail(10)))
	cases := []func(){
		func() { netsim.NewCrossTraffic(nil, net, 1, 1e6, 10, 1.5, 0.1, 1000, 1) },
		func() { netsim.NewCrossTraffic(&s, net, 1, 0, 10, 1.5, 0.1, 1000, 1) },
		func() { netsim.NewCrossTraffic(&s, net, 1, 1e6, 0, 1.5, 0.1, 1000, 1) },
		func() { netsim.NewCrossTraffic(&s, net, 1, 1e6, 10, 1, 0.1, 1000, 1) },
		func() { netsim.NewCrossTraffic(&s, net, 1, 1e6, 10, 1.5, 0, 1000, 1) },
		func() { netsim.NewCrossTraffic(&s, net, 1, 1e6, 10, 1.5, 0.1, 0, 1) },
		func() {
			ct := netsim.NewCrossTraffic(&s, net, 1, 1e6, 10, 1.5, 0.1, 1000, 1)
			ct.Start()
			ct.Start()
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
