package netsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/rng"
)

func TestDropTailFIFO(t *testing.T) {
	q := NewDropTail(3)
	for i := 0; i < 3; i++ {
		if !q.Enqueue(&Packet{Seq: int64(i)}, 0) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if q.Enqueue(&Packet{Seq: 99}, 0) {
		t.Fatal("overfull enqueue accepted")
	}
	if q.Drops != 1 {
		t.Fatalf("drops = %d", q.Drops)
	}
	for i := 0; i < 3; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("dequeue %d = %+v", i, p)
		}
	}
	if q.Dequeue(0) != nil {
		t.Fatal("empty dequeue should be nil")
	}
}

// An Unbounded queue must accept every packet, growing past its initial
// ring while preserving FIFO order — including across a wrapped head.
func TestUnboundedGrowsFIFO(t *testing.T) {
	q := NewUnbounded()
	// Wrap the ring head before forcing growth.
	for i := 0; i < 10; i++ {
		q.Enqueue(&Packet{Seq: -1}, 0)
	}
	for i := 0; i < 10; i++ {
		q.Dequeue(0)
	}
	const n = 500 // well past the initial capacity
	for i := 0; i < n; i++ {
		if !q.Enqueue(&Packet{Seq: int64(i)}, 0) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if q.Len() != n {
		t.Fatalf("len = %d, want %d", q.Len(), n)
	}
	for i := 0; i < n; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("dequeue %d = %+v", i, p)
		}
	}
	if q.Dequeue(0) != nil {
		t.Fatal("empty dequeue should be nil")
	}
}

func TestREDAcceptsBelowMinTh(t *testing.T) {
	cfg := REDConfig{Capacity: 100, MinTh: 10, MaxTh: 50, MaxP: 0.1, Wq: 0.2}
	q := NewRED(cfg, 1e6, rng.New(1))
	// With an empty queue the average stays near zero: all accepted.
	for i := 0; i < 5; i++ {
		if !q.Enqueue(&Packet{Size: 1000}, float64(i)*0.001) {
			t.Fatal("packet dropped below min threshold")
		}
		q.Dequeue(float64(i)*0.001 + 0.0005)
	}
	if q.Drops != 0 {
		t.Fatalf("drops = %d", q.Drops)
	}
}

func TestREDDropsProbabilisticallyBetweenThresholds(t *testing.T) {
	cfg := REDConfig{Capacity: 1000, MinTh: 5, MaxTh: 15, MaxP: 0.1, Wq: 0.1}
	q := NewRED(cfg, 1e6, rng.New(2))
	// Hold the queue at ~10 packets (inside [minth, maxth)) by pairing
	// each enqueue with a dequeue: early drops must appear while forced
	// drops stay absent.
	for i := 0; i < 10; i++ {
		q.Enqueue(&Packet{Size: 1000}, 0)
	}
	for i := 0; i < 2000; i++ {
		now := float64(i) * 1e-4
		if q.Enqueue(&Packet{Size: 1000}, now) {
			q.Dequeue(now)
		}
	}
	if q.EarlyDrops == 0 {
		t.Fatal("no early drops in the RED band")
	}
	if q.Drops != q.EarlyDrops {
		t.Fatalf("forced drops appeared: total %d vs early %d", q.Drops, q.EarlyDrops)
	}
}

func TestREDForcesDropsAboveMaxTh(t *testing.T) {
	cfg := REDConfig{Capacity: 1000, MinTh: 2, MaxTh: 6, MaxP: 0.1, Wq: 1.0}
	q := NewRED(cfg, 1e6, rng.New(3))
	dropped := 0
	for i := 0; i < 50; i++ {
		if !q.Enqueue(&Packet{Size: 1000}, float64(i)*1e-4) {
			dropped++
		}
	}
	// With wq=1 the average tracks the instantaneous queue: once above
	// maxth=6, every arrival is dropped (non-gentle).
	if q.Len() > 8 {
		t.Fatalf("queue length %d should stay near maxth", q.Len())
	}
	if dropped < 30 {
		t.Fatalf("dropped = %d, want most arrivals", dropped)
	}
}

func TestREDForcedAtCapacity(t *testing.T) {
	cfg := REDConfig{Capacity: 5, MinTh: 100, MaxTh: 200, MaxP: 0.1, Wq: 0.001}
	q := NewRED(cfg, 1e6, rng.New(4))
	accepted := 0
	for i := 0; i < 10; i++ {
		if q.Enqueue(&Packet{Size: 1000}, 0) {
			accepted++
		}
	}
	if accepted != 5 {
		t.Fatalf("accepted = %d, want capacity 5", accepted)
	}
}

func TestREDIdleDecay(t *testing.T) {
	cfg := REDConfig{Capacity: 100, MinTh: 5, MaxTh: 50, MaxP: 0.1, Wq: 0.1}
	q := NewRED(cfg, 1e6, rng.New(5))
	for i := 0; i < 30; i++ {
		q.Enqueue(&Packet{Size: 1000}, 0.001*float64(i))
	}
	highAvg := q.Avg()
	for q.Len() > 0 {
		q.Dequeue(0.05)
	}
	// Long idle: the average must decay substantially.
	q.Enqueue(&Packet{Size: 1000}, 10)
	if q.Avg() > highAvg/2 {
		t.Fatalf("average %v did not decay from %v after idle", q.Avg(), highAvg)
	}
}

func TestPaperRED(t *testing.T) {
	cfg := PaperRED(100)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Capacity != 250 || cfg.MinTh != 25 || cfg.MaxTh != 125 {
		t.Fatalf("paper RED = %+v", cfg)
	}
	// Tiny bdp is clamped to stay valid.
	if err := PaperRED(1).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkLatencyAndRate(t *testing.T) {
	var s des.Scheduler
	link := NewLink(&s, 1000, 0.1, NewDropTail(10)) // 1000 B/s, 100 ms
	var arrivals []float64
	link.Deliver = func(p *Packet) { arrivals = append(arrivals, s.Now()) }
	// Two 500-byte packets sent back to back at t=0: transmission takes
	// 0.5 s each, so deliveries at 0.6 and 1.1.
	link.Send(&Packet{Size: 500})
	link.Send(&Packet{Size: 500})
	s.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if math.Abs(arrivals[0]-0.6) > 1e-9 || math.Abs(arrivals[1]-1.1) > 1e-9 {
		t.Fatalf("arrival times = %v, want [0.6, 1.1]", arrivals)
	}
	if link.Forwarded() != 2 || link.BytesForwarded() != 1000 {
		t.Fatalf("counters = %d pkts %d bytes", link.Forwarded(), link.BytesForwarded())
	}
}

func TestLinkThroughputCap(t *testing.T) {
	var s des.Scheduler
	link := NewLink(&s, 10000, 0.01, NewDropTail(5))
	delivered := 0
	link.Deliver = func(p *Packet) { delivered++ }
	// Offer 100 packets instantly into a queue of 5: only ~6 (1 in
	// service + 5 queued) can survive.
	for i := 0; i < 100; i++ {
		link.Send(&Packet{Size: 1000, Seq: int64(i)})
	}
	s.Run()
	if delivered > 7 {
		t.Fatalf("delivered = %d, want <= 7", delivered)
	}
	q := link.Queue().(*DropTail)
	if q.Drops != int64(100-delivered) {
		t.Fatalf("drops = %d, delivered = %d", q.Drops, delivered)
	}
}

func TestLossEventCounterGroupsWithinRTT(t *testing.T) {
	c := NewLossEventCounter(func() float64 { return 0.1 })
	if !c.OnLoss(1.0, 100) {
		t.Fatal("first loss should open an event")
	}
	// Within one RTT: same event.
	if c.OnLoss(1.05, 110) {
		t.Fatal("loss within RTT should not open a new event")
	}
	// Past one RTT: new event, interval recorded from first-seq to
	// first-seq.
	if !c.OnLoss(1.2, 150) {
		t.Fatal("loss after RTT should open a new event")
	}
	if c.Events != 2 {
		t.Fatalf("events = %d", c.Events)
	}
	if len(c.Intervals) != 1 || c.Intervals[0] != 50 {
		t.Fatalf("intervals = %v", c.Intervals)
	}
	if c.OpenInterval(170) != 20 {
		t.Fatalf("open interval = %v", c.OpenInterval(170))
	}
	if c.OpenInterval(100) != 0 {
		t.Fatal("open interval before last event seq should be 0")
	}
}

func TestPanics(t *testing.T) {
	var s des.Scheduler
	cases := []func(){
		func() { NewDropTail(0) },
		func() { NewRED(REDConfig{}, 1e6, rng.New(1)) },
		func() { NewRED(PaperRED(50), 0, rng.New(1)) },
		func() { NewRED(PaperRED(50), 1e6, nil) },
		func() { NewLink(nil, 1, 0, NewDropTail(1)) },
		func() { NewLink(&s, 0, 0, NewDropTail(1)) },
		func() { NewLink(&s, 1, -1, NewDropTail(1)) },
		func() { NewLink(&s, 1, 0, nil) },
		func() { NewLossEventCounter(nil) },
		func() {
			l := NewLink(&s, 1, 0, NewDropTail(1))
			l.Send(&Packet{Size: 1}) // no Deliver sink
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

// Property: a link never reorders packets (FIFO), for any packet sizes.
func TestQuickLinkFIFO(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 50 {
			sizes = sizes[:50]
		}
		var s des.Scheduler
		link := NewLink(&s, 1e5, 0.01, NewDropTail(len(sizes)+1))
		var got []int64
		link.Deliver = func(p *Packet) { got = append(got, p.Seq) }
		for i, sz := range sizes {
			link.Send(&Packet{Seq: int64(i), Size: int(sz%1400) + 40})
		}
		s.Run()
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				return false
			}
		}
		return len(got) == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: DropTail never holds more than its capacity and never drops
// while below it.
func TestQuickDropTailInvariant(t *testing.T) {
	r := rng.New(7)
	f := func(capRaw, n uint8) bool {
		capacity := int(capRaw%16) + 1
		q := NewDropTail(capacity)
		for i := 0; i < int(n); i++ {
			if r.Bernoulli(0.6) {
				before := q.Len()
				ok := q.Enqueue(&Packet{}, 0)
				if ok != (before < capacity) {
					return false
				}
			} else {
				q.Dequeue(0)
			}
			if q.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLinkForward(b *testing.B) {
	var s des.Scheduler
	link := NewLink(&s, 1e9, 0.001, NewDropTail(64))
	link.Deliver = func(p *Packet) {}
	pkt := &Packet{Size: 1000}
	for i := 0; i < b.N; i++ {
		link.Send(pkt)
		s.Run()
	}
}

func TestREDConfigValidate(t *testing.T) {
	base := REDConfig{Capacity: 100, MinTh: 10, MaxTh: 50, MaxP: 0.1, Wq: 0.002}
	cases := []struct {
		name string
		mut  func(*REDConfig)
		ok   bool
	}{
		{"valid baseline", func(*REDConfig) {}, true},
		{"zero capacity", func(c *REDConfig) { c.Capacity = 0 }, false},
		{"negative capacity", func(c *REDConfig) { c.Capacity = -5 }, false},
		{"capacity of one", func(c *REDConfig) { c.Capacity = 1 }, true},
		{"zero minth", func(c *REDConfig) { c.MinTh = 0 }, false},
		{"negative minth", func(c *REDConfig) { c.MinTh = -1 }, false},
		{"maxth equals minth", func(c *REDConfig) { c.MaxTh = c.MinTh }, false},
		{"maxth below minth", func(c *REDConfig) { c.MaxTh = c.MinTh - 1 }, false},
		{"maxth just above minth", func(c *REDConfig) { c.MaxTh = c.MinTh + 1e-9 }, true},
		{"zero maxp", func(c *REDConfig) { c.MaxP = 0 }, false},
		{"maxp of one", func(c *REDConfig) { c.MaxP = 1 }, true},
		{"maxp above one", func(c *REDConfig) { c.MaxP = 1.0001 }, false},
		{"zero wq", func(c *REDConfig) { c.Wq = 0 }, false},
		{"wq of one", func(c *REDConfig) { c.Wq = 1 }, true},
		{"wq above one", func(c *REDConfig) { c.Wq = 1.5 }, false},
		{"gentle flag irrelevant", func(c *REDConfig) { c.Gentle = true }, true},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: config %+v should be rejected", tc.name, cfg)
		}
	}
}

func TestLossEventCounterOpenInterval(t *testing.T) {
	cases := []struct {
		name   string
		losses []int64 // sequence numbers fed as losses, 1 s apart
		high   int64
		want   float64
	}{
		{"no events yet", nil, 100, 0},
		{"highest at event seq", []int64{50}, 50, 0},
		{"highest below event seq", []int64{50}, 10, 0},
		{"open interval counts from last event", []int64{50}, 73, 23},
		{"second event resets the origin", []int64{50, 80}, 95, 15},
		{"highest just past event", []int64{50, 80}, 81, 1},
	}
	for _, tc := range cases {
		c := NewLossEventCounter(func() float64 { return 0.1 })
		for i, seq := range tc.losses {
			c.OnLoss(float64(i+1), seq)
		}
		if got := c.OpenInterval(tc.high); got != tc.want {
			t.Errorf("%s: OpenInterval(%d) = %v, want %v", tc.name, tc.high, got, tc.want)
		}
	}
}

func TestREDGentleMode(t *testing.T) {
	cfg := REDConfig{Capacity: 1000, MinTh: 2, MaxTh: 6, MaxP: 0.1, Wq: 1.0, Gentle: true}
	q := NewRED(cfg, 1e6, rng.New(6))
	for i := 0; i < 200; i++ {
		q.Enqueue(&Packet{Size: 1000}, float64(i)*1e-4)
	}
	// Gentle mode ramps the drop probability between maxth and 2·maxth
	// instead of force-dropping everything at maxth: the queue grows
	// past maxth (some arrivals admitted above it) before drops pin it.
	if q.Len() <= int(cfg.MaxTh) {
		t.Fatalf("gentle RED queue stuck at %d, should pass maxth %v", q.Len(), cfg.MaxTh)
	}
	if q.Drops == 0 {
		t.Fatal("gentle RED dropped nothing above maxth")
	}
}

// A Fault hook must intercept packets before the queue: dropped packets
// go through Release, are counted in FaultDrops, and never consume
// queue space or transmission time.
func TestLinkFaultHookDropsBeforeQueue(t *testing.T) {
	var s des.Scheduler
	link := NewLink(&s, 1000, 0.1, NewDropTail(10))
	delivered, released := 0, 0
	link.Deliver = func(p *Packet) { delivered++ }
	link.Release = func(p *Packet) { released++ }
	down := false
	link.Fault = func(p *Packet) bool { return down }
	link.Send(&Packet{Size: 500})
	down = true
	link.Send(&Packet{Size: 500})
	link.Send(&Packet{Size: 500})
	down = false
	link.Send(&Packet{Size: 500})
	s.Run()
	if delivered != 2 || released != 2 || link.FaultDrops != 2 {
		t.Fatalf("delivered=%d released=%d faultDrops=%d, want 2/2/2",
			delivered, released, link.FaultDrops)
	}
	if link.InFlight() != 0 {
		t.Fatalf("in flight = %d after drain", link.InFlight())
	}
}

// FlushQueue must discard exactly the queued packets: the one being
// serialized and any propagating packets still arrive, and every
// flushed packet goes through Release so ledgers stay balanced.
func TestLinkFlushQueue(t *testing.T) {
	var s des.Scheduler
	link := NewLink(&s, 1000, 0.1, NewDropTail(10))
	delivered, released := 0, 0
	link.Deliver = func(p *Packet) { delivered++ }
	link.Release = func(p *Packet) { released++ }
	for i := 0; i < 5; i++ {
		link.Send(&Packet{Size: 500, Seq: int64(i)})
	}
	// One packet is serializing, four are queued.
	if n := link.FlushQueue(); n != 4 {
		t.Fatalf("flushed %d, want 4", n)
	}
	if link.FaultDrops != 4 || released != 4 {
		t.Fatalf("faultDrops=%d released=%d, want 4/4", link.FaultDrops, released)
	}
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want the in-service packet only", delivered)
	}
	if link.InFlight() != 0 {
		t.Fatalf("in flight = %d after drain", link.InFlight())
	}
}

// The unbounded queue tracks its high-water mark and converts runaway
// growth into a diagnosed panic at the hard cap.
func TestUnboundedHighWaterAndCap(t *testing.T) {
	q := NewUnbounded()
	q.Cap = 8
	for i := 0; i < 8; i++ {
		q.Enqueue(&Packet{}, 0)
	}
	if q.HighWater != 8 {
		t.Fatalf("high water = %d, want 8", q.HighWater)
	}
	q.Dequeue(0)
	q.Enqueue(&Packet{}, 0) // back at the cap, not over it
	if q.HighWater != 8 {
		t.Fatalf("high water = %d after re-fill, want 8", q.HighWater)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("enqueue past the cap did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "hard cap") {
			t.Fatalf("panic %q does not diagnose the cap", msg)
		}
	}()
	q.Enqueue(&Packet{}, 0)
}
