package netsim

import (
	"fmt"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
)

// twoEventLink is the link as it was before the end of serialization
// became settled state: every packet costs it two scheduler events, the
// end of its serialization and its delivery. FuzzLink holds Link to it
// as the oracle.
type twoEventLink struct {
	sched                     *des.Scheduler
	rate, delay               float64
	queue                     Queue
	busy                      bool
	deliver                   func(*Packet)
	forwarded, bytesForwarded int64
	faultDrops                int64
	txPkt                     *Packet
	txTm                      des.Timer
	prop                      []*Packet
}

func (l *twoEventLink) send(p *Packet) {
	if l.queue.Enqueue(p, l.sched.Now()) && !l.busy {
		l.transmitNext()
	}
}

func (l *twoEventLink) flushQueue() {
	for l.queue.Dequeue(l.sched.Now()) != nil {
		l.faultDrops++
	}
}

func (l *twoEventLink) transmitNext() {
	p := l.queue.Dequeue(l.sched.Now())
	if p == nil {
		l.busy, l.txPkt = false, nil
		return
	}
	l.busy, l.txPkt = true, p
	l.txTm = l.sched.After(float64(p.Size)/l.rate, l.onTxDone)
}

func (l *twoEventLink) onTxDone() {
	p := l.txPkt
	l.forwarded++
	l.bytesForwarded += int64(p.Size)
	l.prop = append(l.prop, p)
	l.sched.After(l.delay, func() {
		q := l.prop[0]
		l.prop = l.prop[1:]
		l.deliver(q)
	})
	l.transmitNext()
}

// delivery is one packet handed to a link's sink: when, and which.
type delivery struct {
	at  float64
	seq int64
}

// linkPair drives a Link and its oracle through the same arrivals, rate
// changes and flushes on one scheduler, checking after each arrival
// that the two agree on the drop decision, the forwarded count, the
// queue length and RED's average.
type linkPair struct {
	t      *testing.T
	sched  *des.Scheduler
	link   *Link
	oracle *twoEventLink
	got    []delivery
	want   []delivery
	seq    int64
}

func newLinkPair(t *testing.T, s *des.Scheduler, kind byte, capacity int, rate, delay float64) *linkPair {
	queue := func() Queue {
		switch kind % 3 {
		case 0:
			return NewDropTail(capacity)
		case 1:
			cfg := REDConfig{Capacity: capacity + 4, MinTh: 1 + float64(capacity)/4, MaxTh: 2 + float64(capacity)/2, MaxP: 0.2, Wq: 0.05}
			return NewRED(cfg, rate, rng.New(uint64(capacity)))
		default:
			return NewUnbounded()
		}
	}
	lp := &linkPair{t: t, sched: s, link: NewLink(s, rate, delay, queue())}
	lp.oracle = &twoEventLink{sched: s, rate: rate, delay: delay, queue: queue()}
	lp.link.Deliver = func(p *Packet) { lp.got = append(lp.got, delivery{s.Now(), p.Seq}) }
	lp.oracle.deliver = func(p *Packet) { lp.want = append(lp.want, delivery{s.Now(), p.Seq}) }
	return lp
}

// arrive offers one packet of the given size to both links and compares
// them.
func (lp *linkPair) arrive(size int) {
	lp.seq++
	lp.link.Send(&Packet{Seq: lp.seq, Size: size})
	lp.oracle.send(&Packet{Seq: lp.seq, Size: size})
	lp.compare(fmt.Sprintf("arrival %d (%d B) at %v", lp.seq, size, lp.sched.Now()))
}

func (lp *linkPair) compare(where string) {
	lp.t.Helper()
	l, o := lp.link, lp.oracle
	gotDrops, gotEarly, _ := QueueStats(l.Queue())
	wantDrops, wantEarly, _ := QueueStats(o.queue)
	if got, want := l.Forwarded(), o.forwarded; got != want {
		lp.t.Fatalf("%s: forwarded %d, oracle %d", where, got, want)
	}
	if got, want := l.Queue().Len(), o.queue.Len(); got != want {
		lp.t.Fatalf("%s: queue length %d, oracle %d", where, got, want)
	}
	if gotDrops != wantDrops || gotEarly != wantEarly || l.FaultDrops != o.faultDrops {
		lp.t.Fatalf("%s: drops %d/%d/%d, oracle %d/%d/%d", where,
			gotDrops, gotEarly, l.FaultDrops, wantDrops, wantEarly, o.faultDrops)
	}
	if r, ok := l.Queue().(*RED); ok {
		if got, want := r.Avg(), o.queue.(*RED).Avg(); got != want {
			lp.t.Fatalf("%s: RED average %v, oracle %v", where, got, want)
		}
	}
}

// fuzzRates and fuzzDelays mix round values, on which serialization
// times share a float lattice, with values off it.
var (
	fuzzRates  = []float64{1e3, 1.25e4, 1e5, 1.25e6, 3333.3, 77777.7}
	fuzzDelays = []float64{0, 0.001, 0.01, 0.05, 0.0123457}
	fuzzSizes  = []int{40, 576, 1000, 1500}
)

// FuzzLink runs the one-event Link against the two-event oracle on
// fuzzed traffic: packet sizes, gaps on and off the serialization
// lattice, arrivals at the exact instant of a departure with a causal
// key on either side of the departure's, DropTail, RED and Unbounded
// queues, and rate changes and flushes mid-stream. The delivery
// sequences — time and packet — must match, and so must every drop
// decision, RED's average, the forwarded count and the queue length at
// every arrival.
//
// The input is a header (queue kind, capacity, rate, delay) and then
// one op per two bytes.
func FuzzLink(f *testing.F) {
	f.Add([]byte{0, 4, 2, 1, 0, 3, 0, 3, 4, 0, 4, 0, 1, 200, 5, 3, 6, 0, 0, 2})
	f.Add([]byte{1, 8, 0, 2, 0, 2, 7, 9, 4, 1, 4, 0, 2, 2, 6, 0, 0, 50, 7, 3, 4, 1})
	f.Add([]byte{2, 1, 4, 4, 7, 2, 0, 1, 1, 9, 4, 0, 4, 1, 5, 5, 2, 33, 6, 0})
	f.Add([]byte{0, 2, 3, 0, 7, 4, 4, 1, 4, 0, 0, 0, 7, 1, 5, 0, 4, 1, 1, 3})
	f.Add([]byte{1, 5, 1, 3, 3, 2, 12, 0, 4, 2, 0, 1, 12, 3, 5, 4, 3, 2, 12, 1, 6, 0, 0, 210, 4, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 4 || len(b) > 512 {
			return
		}
		var s des.Scheduler
		rate, delay := fuzzRates[int(b[2])%len(fuzzRates)], fuzzDelays[int(b[3])%len(fuzzDelays)]
		lp := newLinkPair(t, &s, b[0], 1+int(b[1])%16, rate, delay)
		lattice := float64(fuzzSizes[2]) / rate
		at := 0.0
		for ops := b[4:]; len(ops) >= 2; ops = ops[2:] {
			op, arg := ops[0], ops[1]
			size := fuzzSizes[int(arg)%len(fuzzSizes)]
			if arg >= 200 {
				size = 1 + int(arg) // sizes off the round values
			}
			// Every op takes effect under a causal key equal to its time,
			// after any departure at that instant.
			schedule := func(fn func()) { s.AtOrigin(at, at, fn) }
			switch op % 8 {
			case 0, 1: // a gap on the lattice
				at += float64(op/8%4) * lattice
				schedule(func() { lp.arrive(size) })
			case 2: // a gap off it
				at += float64(int(op/8)+1) * 1.37e-4
				schedule(func() { lp.arrive(size) })
			case 3: // a burst of arrivals at one instant
				for i := 0; i < 1+int(op/8)%4; i++ {
					schedule(func() { lp.arrive(size) })
				}
			case 4: // an arrival at the next departure, its key before or after the departure's
				before := op/8%2 == 0
				schedule(func() {
					st := lp.oracle.txTm.State()
					if !st.OK {
						lp.arrive(size)
						return
					}
					key := st.At // after: the departure's key is its start, earlier
					if before {
						key = st.Key - 1e-3
					}
					s.AtOrigin(st.At, key, func() { lp.arrive(size) })
				})
			case 5: // a rate change
				r := fuzzRates[int(arg)%len(fuzzRates)]
				schedule(func() {
					lp.link.SetRate(r)
					lp.oracle.rate = r
					lp.compare(fmt.Sprintf("rate change at %v", s.Now()))
				})
			case 6: // a flush
				schedule(func() {
					lp.link.FlushQueue()
					lp.oracle.flushQueue()
					lp.compare(fmt.Sprintf("flush at %v", s.Now()))
				})
			case 7: // a long gap: the link drains
				at += float64(arg) * 0.01
			}
		}
		s.Run()
		lp.compare("end of run")
		if len(lp.got) != len(lp.want) {
			t.Fatalf("%d deliveries, oracle %d", len(lp.got), len(lp.want))
		}
		for i := range lp.got {
			if lp.got[i] != lp.want[i] {
				t.Fatalf("delivery %d: %+v, oracle %+v", i, lp.got[i], lp.want[i])
			}
		}
		if got, want := lp.link.BytesForwarded(), lp.oracle.bytesForwarded; got != want {
			t.Fatalf("bytes forwarded %d, oracle %d", got, want)
		}
	})
}

// N packets over a k-hop chain fire exactly N·k link events: one
// delivery per packet per hop, and no event for the end of
// serialization.
func TestOneEventPerPacketPerHop(t *testing.T) {
	const n, k = 50, 4
	var s des.Scheduler
	links := make([]*Link, k)
	delivered := 0
	for i := range links {
		links[i] = NewLink(&s, 1e5, 0.002, NewDropTail(n))
	}
	for i, l := range links {
		if i+1 < k {
			next := links[i+1]
			l.Deliver = next.Send
		} else {
			l.Deliver = func(*Packet) { delivered++ }
		}
	}
	for i := 0; i < n; i++ {
		links[0].Send(&Packet{Seq: int64(i), Size: 1000 + 10*(i%3)})
	}
	s.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d packets", delivered, n)
	}
	if got := s.Fired(); got != n*k {
		t.Fatalf("%d events for %d packets over %d hops, want %d", got, n, k, n*k)
	}
	for i, l := range links {
		if l.Forwarded() != n {
			t.Fatalf("link %d forwarded %d of %d", i, l.Forwarded(), n)
		}
	}
}
