package des

import (
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestOrdering(t *testing.T) {
	var s Scheduler
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v", s.Now())
	}
	if s.Fired() != 3 {
		t.Fatalf("fired = %d", s.Fired())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	var s Scheduler
	fired := 0.0
	s.After(2, func() {
		fired = s.Now()
		s.After(3, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 5 {
		t.Fatalf("nested After fired at %v, want 5", fired)
	}
}

func TestCancel(t *testing.T) {
	var s Scheduler
	ran := false
	tm := s.At(1, func() { ran = true })
	if !tm.Active() {
		t.Fatal("timer should be active")
	}
	tm.Cancel()
	if tm.Active() {
		t.Fatal("cancelled timer should be inactive")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Double cancel and zero-Timer cancel are no-ops.
	tm.Cancel()
	var zero Timer
	zero.Cancel()
	if zero.Active() {
		t.Fatal("zero timer active")
	}
}

func TestCancelDuringRun(t *testing.T) {
	var s Scheduler
	ran := false
	var tm Timer
	s.At(1, func() { tm.Cancel() })
	tm = s.At(2, func() { ran = true })
	s.Run()
	if ran {
		t.Fatal("event cancelled mid-run still ran")
	}
}

func TestRunUntil(t *testing.T) {
	var s Scheduler
	count := 0
	// Self-sustaining chain: one event per second forever.
	var tick func()
	tick = func() {
		count++
		s.After(1, tick)
	}
	s.After(1, tick)
	s.RunUntil(10.5)
	if count != 10 {
		t.Fatalf("ticks = %d, want 10", count)
	}
	if s.Now() != 10.5 {
		t.Fatalf("clock = %v, want 10.5", s.Now())
	}
	s.RunUntil(12)
	if count != 12 {
		t.Fatalf("ticks after resume = %d, want 12 (ticks at 11 and 12)", count)
	}
}

func TestRunUntilExactBoundary(t *testing.T) {
	var s Scheduler
	ran := false
	s.At(5, func() { ran = true })
	s.RunUntil(5)
	if !ran {
		t.Fatal("event exactly at deadline should fire")
	}
}

func TestPendingCountsLiveOnly(t *testing.T) {
	var s Scheduler
	t1 := s.At(1, func() {})
	s.At(2, func() {})
	t3 := s.At(3, func() {})
	if s.Pending() != 3 {
		t.Fatalf("pending = %d", s.Pending())
	}
	t1.Cancel()
	t3.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("pending after two cancels = %d, want 1 (live only)", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("pending after run = %d", s.Pending())
	}
}

// listLen counts the events on one bucket or overflow list.
func listLen(s *Scheduler, l list) int {
	n := 0
	for id := l.head; id != 0; id = s.slots[id].next {
		n++
	}
	return n
}

// storedEntries counts the events physically buffered anywhere in the
// scheduler: the working set, every wheel bucket, and the overflow
// list.
func storedEntries(s *Scheduler) int {
	n := len(s.cur) - s.curIdx + listLen(s, s.overflow)
	for l := range s.levels {
		for _, b := range s.levels[l].bucket {
			n += listLen(s, b)
		}
	}
	return n
}

// TestCancelUnlinksAtOnce pins eager cancellation under a cancel storm:
// far-future timers scheduled and immediately cancelled, as a
// retransmit timer re-armed per ACK is. Each cancel unlinks its event,
// so the scheduler buffers nothing but at most the last cancelled copy
// left in the working set, and the slot table never grows past the one
// event pending at a time.
func TestCancelUnlinksAtOnce(t *testing.T) {
	var s Scheduler
	for i := 0; i < 100000; i++ {
		tm := s.At(1e9+float64(i), func() {})
		tm.Cancel()
	}
	if got := storedEntries(&s); got > 1 {
		t.Fatalf("scheduler buffers %d entries after cancel storm, want <= 1", got)
	}
	if len(s.slots) > 2 {
		t.Fatalf("slot table holds %d slots after cancel storm, want <= 2", len(s.slots))
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", s.Pending())
	}
	// Live events must survive the storm and fire in order.
	var got []float64
	for i := 10; i > 0; i-- {
		s.At(float64(i), func() { got = append(got, s.Now()) })
	}
	for i := 0; i < 100000; i++ {
		tm := s.At(1e9+float64(i), func() {})
		tm.Cancel()
	}
	if n := storedEntries(&s); n > s.Pending()+1 {
		t.Fatalf("scheduler buffers %d entries for %d pending", n, s.Pending())
	}
	s.RunUntil(20)
	if len(got) != 10 {
		t.Fatalf("fired %d live events, want 10", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order after cancel storm: %v", got)
		}
	}
}

// TestTimerGenerationReuse checks that a stale handle to a recycled slot
// can neither cancel nor observe the slot's new occupant.
func TestTimerGenerationReuse(t *testing.T) {
	var s Scheduler
	old := s.At(1, func() {})
	old.Cancel() // slot returns to the freelist
	ran := false
	fresh := s.At(2, func() { ran = true }) // recycles the slot
	if old.slot != fresh.slot {
		t.Fatalf("freelist did not recycle the slot (%d vs %d)", old.slot, fresh.slot)
	}
	if old.Active() {
		t.Fatal("stale handle reports active")
	}
	old.Cancel() // must not touch the recycled slot
	if !fresh.Active() {
		t.Fatal("stale Cancel killed the new timer")
	}
	s.Run()
	if !ran {
		t.Fatal("recycled-slot event did not run")
	}
	// After firing, both handles are dead and further cancels are no-ops.
	if fresh.Active() {
		t.Fatal("fired timer reports active")
	}
	fresh.Cancel()
}

// TestFIFOUnderFreelistReuse checks the same-instant FIFO tie-break when
// the events' slots come from the freelist in scrambled order.
func TestFIFOUnderFreelistReuse(t *testing.T) {
	var s Scheduler
	// Build a scrambled freelist: schedule a batch, cancel out of order.
	var tms []Timer
	for i := 0; i < 16; i++ {
		tms = append(tms, s.At(100, func() {}))
	}
	for _, i := range []int{7, 0, 15, 3, 12, 1, 9, 5, 14, 2, 11, 4, 13, 6, 10, 8} {
		tms[i].Cancel()
	}
	var got []int
	for i := 0; i < 16; i++ {
		i := i
		s.At(50, func() { got = append(got, i) })
	}
	s.RunUntil(60)
	if len(got) != 16 {
		t.Fatalf("fired %d events, want 16", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of scheduling order under slot reuse: %v", got)
		}
	}
}

// refEvent mirrors one scheduled event in the naive reference models.
type refEvent struct {
	at   float64
	key  float64
	seq  uint64
	id   int
	dead bool
}

// TestQuickVsSortedSliceReference drives random schedule/cancel/
// reschedule/step traffic through the scheduler and a naive
// sorted-slice reference in lockstep, comparing the full firing order.
func TestQuickVsSortedSliceReference(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 200; trial++ {
		var s Scheduler
		var ref []refEvent
		timers := map[int]Timer{}
		var gotIDs, wantIDs []int
		nextID := 0
		steps := int(r.Uint64()%200) + 10
		for op := 0; op < steps; op++ {
			switch {
			case r.Bernoulli(0.55): // schedule
				id := nextID
				nextID++
				at := s.Now() + r.Float64()*10
				timers[id] = s.At(at, func() { gotIDs = append(gotIDs, id) })
				ref = append(ref, refEvent{at: at, seq: uint64(op), id: id})
			case r.Bernoulli(0.5): // cancel a random live timer
				for id, tm := range timers {
					tm.Cancel()
					delete(timers, id)
					for i := range ref {
						if ref[i].id == id {
							ref[i].dead = true
						}
					}
					break
				}
			default: // step
				s.Step()
				stepRef(&ref, &wantIDs)
			}
		}
		for s.Step() {
			stepRef(&ref, &wantIDs)
		}
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(gotIDs), len(wantIDs))
		}
		for i := range gotIDs {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("trial %d: firing order diverges at %d: got %v want %v", trial, i, gotIDs, wantIDs)
			}
		}
	}
}

// stepRef pops the earliest live event of the reference model.
func stepRef(ref *[]refEvent, fired *[]int) {
	events := *ref
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].seq < events[j].seq
	})
	for i, e := range events {
		if e.dead {
			continue
		}
		*fired = append(*fired, e.id)
		*ref = append(events[:i], events[i+1:]...)
		return
	}
	// Drop any fully dead prefix.
	*ref = events[:0]
}

func TestPanics(t *testing.T) {
	var s Scheduler
	s.At(5, func() {})
	s.Step()
	cases := []func(){
		func() { s.At(1, func() {}) }, // past
		func() { s.After(-1, func() {}) },
		func() { s.At(10, nil) },
		func() { s.RunUntil(1) },
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

// Property: events always fire in non-decreasing time order, regardless
// of insertion order.
func TestQuickTimeOrdered(t *testing.T) {
	r := rng.New(99)
	f := func(n uint8) bool {
		var s Scheduler
		var times []float64
		for i := 0; i < int(n%64)+2; i++ {
			at := r.Float64() * 100
			s.At(at, func() { times = append(times, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock never goes backwards across Step calls.
func TestQuickClockMonotone(t *testing.T) {
	r := rng.New(100)
	f := func(n uint8) bool {
		var s Scheduler
		for i := 0; i < int(n%32)+2; i++ {
			s.At(r.Float64()*50, func() {
				// Schedule more work from inside events.
				if s.Pending() < 100 {
					s.After(r.Float64(), func() {})
				}
			})
		}
		prev := 0.0
		for s.Step() {
			if s.Now() < prev {
				return false
			}
			prev = s.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateZeroAlloc pins that the loops of the perfbench
// scheduler bodies allocate nothing once warmed up: the slot table, the
// freelist and the working set grow only on a new pending high-water.
// Each case returns one iteration of its body's loop, set up as the
// body sets it up.
func TestSteadyStateZeroAlloc(t *testing.T) {
	fn := func() {}
	deep := func(n int, spacing float64) func() {
		var s Scheduler
		for i := 0; i < n; i++ {
			s.After(float64(i)*spacing+0.5, fn)
		}
		return func() {
			s.After(0.25, fn)
			s.Step()
		}
	}
	cases := []struct {
		name string
		loop func() func()
	}{
		{"Fire", func() func() {
			var s Scheduler
			return func() {
				s.After(1, fn)
				s.Step()
			}
		}},
		{"TimerChurn", func() func() {
			var s Scheduler
			tm := s.After(1, fn)
			return func() {
				tm.Cancel()
				tm = s.After(2, fn)
				s.After(1, fn)
				s.Step()
			}
		}},
		{"DeepQueue", func() func() { return deep(1024, 1) }},
		{"DeepQueue8K", func() func() { return deep(8192, 1.0/8) }},
		{"FarAnchor", func() func() {
			const round = 1 << 14
			var s Scheduler
			i := 0
			return func() {
				if i%round == 0 {
					s.Reset()
					s.At(40, fn)
					for j := 0; j < 1024; j++ {
						s.At((float64(j)+0.5)/32, fn)
					}
				}
				i++
				s.After(0.25/32, fn)
				s.Step()
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			loop := c.loop()
			for i := 0; i < 1<<15; i++ { // warm up, through two anchor rounds
				loop()
			}
			if avg := testing.AllocsPerRun(1<<15, loop); avg != 0 {
				t.Fatalf("steady-state allocs per loop iteration = %v, want 0", avg)
			}
		})
	}
}

// refHeap is a naive binary heap ordered by (at, key, seq) — the
// reference priority queue the wheel must match event for event.
type refHeap struct {
	es []refEvent
}

func (h *refHeap) push(e refEvent) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !refBefore(h.es[i], h.es[p]) {
			break
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *refHeap) pop() refEvent {
	top := h.es[0]
	n := len(h.es) - 1
	h.es[0] = h.es[n]
	h.es = h.es[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && refBefore(h.es[c+1], h.es[c]) {
			c++
		}
		if !refBefore(h.es[c], h.es[i]) {
			break
		}
		h.es[i], h.es[c] = h.es[c], h.es[i]
		i = c
	}
	return top
}

func refBefore(a, b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// peekLive discards cancelled events from the top and returns the
// earliest live reference event, if any, without removing it.
func (h *refHeap) peekLive(dead map[int]bool) (refEvent, bool) {
	for len(h.es) > 0 {
		if e := h.es[0]; !dead[e.id] {
			return e, true
		}
		h.pop()
	}
	return refEvent{}, false
}

// popLive pops the earliest live reference event, if any.
func (h *refHeap) popLive(dead map[int]bool) (refEvent, bool) {
	e, ok := h.peekLive(dead)
	if ok {
		h.pop()
	}
	return e, ok
}

// TestFarJumpRewinds pins the undo of the singleton jump. The first
// event of an empty scheduler moves the cursor straight to its tick, 40 s
// ahead; the next event at another tick must bring the cursor back to
// the clock, so that near events go into the wheel rather than behind
// the cursor into the sorted working set.
func TestFarJumpRewinds(t *testing.T) {
	var s Scheduler
	r := rng.New(41)
	var got []float64
	rec := func() { got = append(got, s.Now()) }
	s.At(40, rec)
	check := func(when string) {
		t.Helper()
		for _, e := range s.cur[s.curIdx:] {
			if tickOf(e.at) != s.curTick {
				t.Fatalf("%s: working set holds an entry at tick %d, cursor at %d",
					when, tickOf(e.at), s.curTick)
			}
		}
	}
	for i := 0; i < 1000; i++ {
		s.At(r.Float64(), rec)
		if s.curTick != tickOf(s.Now()) {
			t.Fatalf("after insert %d: cursor at tick %d, clock at tick %d",
				i+2, s.curTick, tickOf(s.Now()))
		}
		check("inserting")
	}
	for s.Step() {
		check("firing")
	}
	if len(got) != 1001 || got[1000] != 40 {
		t.Fatalf("fired %d events, last at %v; want 1001, last at 40", len(got), got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("fired out of order at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

// retainedCap is the event capacity the scheduler holds on to: the
// slot table and the working set.
func retainedCap(s *Scheduler) int {
	return cap(s.slots) + cap(s.cur)
}

// TestSlotTableBoundsMemory pins that pending-event memory follows the
// live events under the retransmit-timer pattern: 500 timers, one
// cancelled and re-armed 1 s ahead every millisecond, for 300 simulated
// seconds. Each simulated second files another level-2 bucket; the
// capacity retained must stay within a small multiple of the peak
// number pending, however many buckets have filled and drained.
func TestSlotTableBoundsMemory(t *testing.T) {
	var s Scheduler
	fn := func() {}
	timers := make([]Timer, 500)
	for i := range timers {
		timers[i] = s.After(1, fn)
	}
	peak, k := 0, 0
	var drive func()
	drive = func() {
		timers[k].Cancel()
		timers[k] = s.After(1, fn)
		k = (k + 1) % len(timers)
		peak = max(peak, s.Pending())
		s.After(0.001, drive)
	}
	s.After(0.001, drive)
	s.RunUntil(300)
	if got := retainedCap(&s); got > 8*peak {
		t.Fatalf("scheduler retains capacity for %d events, peak pending %d", got, peak)
	}
}

// burstyTimers runs 60 simulated seconds of 256 timers re-armed at
// uniform delays in (0, 1) s every 2 ms, plus a burst of 2,000
// same-instant events 20 ms ahead every 100 ms. It returns the
// scheduler and the peak number of events pending.
func burstyTimers() (*Scheduler, int) {
	s := &Scheduler{}
	r := rng.New(16)
	fn := func() {}
	timers := make([]Timer, 256)
	peak := 0
	var rearm, burst func()
	rearm = func() {
		for i := range timers {
			timers[i].Cancel()
			timers[i] = s.After(r.Float64(), fn)
		}
		peak = max(peak, s.Pending())
		s.After(0.002, rearm)
	}
	burst = func() {
		at := s.Now() + 0.02
		for i := 0; i < 2000; i++ {
			s.At(at, fn)
		}
		peak = max(peak, s.Pending())
		s.After(0.1, burst)
	}
	s.At(0, rearm)
	s.At(0, burst)
	s.RunUntil(60)
	return s, peak
}

// TestPendingMemoryFollowsLiveEvents pins that what a scheduler keeps
// alive follows its peak number of pending events, not its burst
// pattern or its count of cancellations. It measures black-box: the
// live heap after a GC with the scheduler reachable, minus the same
// after dropping it.
func TestPendingMemoryFollowsLiveEvents(t *testing.T) {
	var ms runtime.MemStats
	liveHeap := func() int64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	s, peak := burstyTimers()
	with := liveHeap()
	runtime.KeepAlive(s) // s is dead from here on
	kept := with - liveHeap()
	t.Logf("scheduler keeps %d B alive for %d peak pending events", kept, peak)
	if perEvent := kept / int64(peak); perEvent > 256 {
		t.Fatalf("scheduler keeps %d B alive, %d B for each of %d peak pending events; want <= 256 B",
			kept, perEvent, peak)
	}
}

// TestOverflowCascade pins the far-future path explicitly: events beyond
// the wheel horizon must fire, in order, interleaved correctly with
// near events scheduled later.
func TestOverflowCascade(t *testing.T) {
	var s Scheduler
	horizon := float64(uint64(1)<<(numLevels*levelBits)) / ticksPerSecond
	var got []float64
	rec := func() { got = append(got, s.Now()) }
	far1 := horizon * 1.5
	far2 := horizon * 3
	s.At(1, rec) // anchor the cursor so the far events overflow
	s.At(far2, rec)
	s.At(far1, rec)
	s.At(far1, rec) // same-instant tie in the overflow level
	if n := listLen(&s, s.overflow); n != 3 {
		t.Fatalf("overflow holds %d entries, want 3", n)
	}
	s.Run()
	want := []float64{1, far1, far1, far2}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire times = %v, want %v", got, want)
		}
	}
	if n := listLen(&s, s.overflow); n != 0 {
		t.Fatalf("overflow not drained: %d entries", n)
	}
}

// TestReset checks that a reused scheduler is indistinguishable from a
// fresh one: clock, counters and pending set cleared, stale handles
// inert, and a replayed workload firing identically.
func TestReset(t *testing.T) {
	replay := func(s *Scheduler) []int {
		var got []int
		for i := 0; i < 8; i++ {
			i := i
			s.At(float64(8-i), func() { got = append(got, i) })
		}
		tm := s.At(0.5, func() { got = append(got, 99) })
		tm.Cancel()
		s.RunUntil(10)
		return got
	}

	var reused Scheduler
	stale := reused.At(3, func() { panic("must not fire after reset") })
	reused.At(100, func() {})
	reused.RunUntil(1) // advance the clock and cursor mid-queue
	reused.Reset()
	if reused.Now() != 0 || reused.Fired() != 0 || reused.Pending() != 0 {
		t.Fatalf("after Reset: now=%v fired=%d pending=%d, want zeros",
			reused.Now(), reused.Fired(), reused.Pending())
	}
	if storedEntries(&reused) != 0 {
		t.Fatalf("after Reset: %d entries still buffered", storedEntries(&reused))
	}
	if stale.Active() {
		t.Fatal("stale handle active after Reset")
	}
	stale.Cancel() // must not disturb the reused scheduler

	var fresh Scheduler
	want := replay(&fresh)
	got := replay(&reused)
	if len(got) != len(want) {
		t.Fatalf("reused scheduler fired %d events, fresh fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused scheduler order %v, fresh %v", got, want)
		}
	}
	if fresh.Fired() != reused.Fired() || fresh.Now() != reused.Now() {
		t.Fatalf("reused scheduler state (fired=%d now=%v) differs from fresh (fired=%d now=%v)",
			reused.Fired(), reused.Now(), fresh.Fired(), fresh.Now())
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	var s Scheduler
	fn := func() {}
	for i := 0; i < b.N; i++ {
		s.After(1, fn)
		s.Step()
	}
}

// TestResetOverflowEdge pins Reset against the far-future path: after
// scheduling events past the wheel horizon (populating the overflow
// list and high wheel levels) and part-way consuming the queue, Reset
// must leave no occupancy bit set, no buffered entry anywhere, and a
// freelist covering every event slot — cross-checked against a fresh
// scheduler replaying the same workload.
func TestResetOverflowEdge(t *testing.T) {
	horizon := float64(uint64(1)<<(numLevels*levelBits)) / ticksPerSecond
	var s Scheduler
	fn := func() {}
	s.At(1, fn) // anchor the cursor near zero so far events overflow
	for i := 0; i < 100; i++ {
		s.At(horizon*(1.5+float64(i)), fn) // overflow list
		s.At(horizon*0.9-float64(i), fn)   // top wheel level
		s.At(float64(i)+2, fn)             // low levels
	}
	if s.overflow.head == 0 {
		t.Fatal("workload did not reach the overflow list")
	}
	s.RunUntil(50) // consume part of the queue, cursor mid-wheel

	s.Reset()
	if s.overflow != (list{}) {
		t.Fatalf("overflow list %+v after Reset", s.overflow)
	}
	for l := range s.levels {
		lv := &s.levels[l]
		for w, word := range lv.bitmap {
			if word != 0 {
				t.Fatalf("level %d bitmap word %d = %#x after Reset", l, w, word)
			}
		}
		for j, b := range lv.bucket {
			if b != (list{}) {
				t.Fatalf("level %d bucket %d list %+v after Reset", l, j, b)
			}
		}
	}
	if storedEntries(&s) != 0 {
		t.Fatalf("%d entries still buffered after Reset", storedEntries(&s))
	}
	if len(s.free) != len(s.slots)-1 {
		t.Fatalf("freelist covers %d of %d event slots after Reset", len(s.free), len(s.slots)-1)
	}
	if s.live != 0 || s.curTick != 0 {
		t.Fatalf("live=%d curTick=%d after Reset, want zeros", s.live, s.curTick)
	}

	// A replayed far-future workload must fire identically to a fresh
	// scheduler's.
	replay := func(s *Scheduler) []float64 {
		var got []float64
		rec := func() { got = append(got, s.Now()) }
		s.At(1, rec)
		s.At(horizon*2, rec)
		s.At(horizon*1.25, rec)
		s.At(3, rec)
		s.Run()
		return got
	}
	var fresh Scheduler
	want := replay(&fresh)
	got := replay(&s)
	if len(got) != len(want) {
		t.Fatalf("reused fired %d events, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused fire times %v, fresh %v", got, want)
		}
	}
}

// TestRunBefore pins the half-open window semantics: events strictly
// before the limit fire, an event exactly at the limit does not, and
// the clock lands exactly on the limit so a follow-up RunUntil of the
// same instant fires the boundary event — together they tile a phase
// into windows without double-firing or skipping.
func TestRunBefore(t *testing.T) {
	var s Scheduler
	var got []float64
	rec := func() { got = append(got, s.Now()) }
	s.At(1, rec)
	s.At(2, rec)
	s.At(3, rec)
	s.RunBefore(2)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("RunBefore(2) fired %v, want [1]", got)
	}
	if s.Now() != 2 {
		t.Fatalf("clock = %v after RunBefore(2), want 2", s.Now())
	}
	s.RunUntil(2)
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("RunUntil(2) after RunBefore(2) fired %v, want [1 2]", got)
	}
	// Scheduling exactly at the window edge from outside is legal: the
	// clock sits at the limit.
	s.At(2, rec)
	s.RunBefore(2.5)
	if len(got) != 3 || got[2] != 2 {
		t.Fatalf("edge event: fired %v, want [1 2 2]", got)
	}
	s.RunBefore(10)
	if len(got) != 4 || got[3] != 3 {
		t.Fatalf("final window fired %v, want [1 2 2 3]", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RunBefore into the past did not panic")
			}
		}()
		s.RunBefore(5)
	}()
}

// TestAtOriginTieOrder pins the causal tie-break: events that share one
// firing instant fire in origin order regardless of scheduling order,
// with scheduling order (seq) deciding only among equal origins. This
// is what lets a cross-shard injection — scheduled at a window barrier,
// after every window-local event — reclaim the position its emission
// time would have earned it on a serial engine.
func TestAtOriginTieOrder(t *testing.T) {
	var s Scheduler
	var got []string
	rec := func(name string) Event { return func() { got = append(got, name) } }

	// Local events scheduled while the clock advances: their keys are
	// their scheduling instants 0.0 and 0.2.
	s.At(1.0, rec("local@0.0"))
	s.At(0.2, func() {
		s.At(1.0, rec("local@0.2"))
		// Injections arriving late (higher seq) but with origins that
		// interleave the local keys.
		s.AtOrigin(1.0, 0.1, rec("inject@0.1"))
		s.AtOrigin(1.0, 0.3, rec("inject@0.3"))
		// Equal origins fall back to scheduling order.
		s.AtOrigin(1.0, 0.1, rec("inject@0.1-second"))
	})
	s.RunUntil(2)

	want := []string{"local@0.0", "inject@0.1", "inject@0.1-second", "local@0.2", "inject@0.3"}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing order %v, want %v", got, want)
		}
	}

	// origin may precede the clock (the emitter's clock lags the
	// injecting shard's), but never the firing time.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AtOrigin with origin > at did not panic")
			}
		}()
		s.AtOrigin(3.0, 3.5, rec("bad"))
	}()
}

// Passed answers for an identity the scheduler never holds what its
// event would have done: inside an event, every (time, key) before the
// firing one has fired — an identity equal to it counts as fired — and
// nothing after it; after RunUntil every event at the clock has fired,
// after RunBefore none has, and a restored clock counts as RunUntil's.
func TestPassed(t *testing.T) {
	type probe struct {
		at, key float64
		want    bool
	}
	check := func(t *testing.T, s *Scheduler, where string, probes []probe) {
		t.Helper()
		for _, p := range probes {
			if got := s.Passed(p.at, p.key); got != p.want {
				t.Errorf("%s: Passed(%v, %v) = %v, want %v", where, p.at, p.key, got, p.want)
			}
		}
	}
	var s Scheduler
	ran := false
	s.AtOrigin(2, 1, func() {
		ran = true
		check(t, &s, "inside the event at (2, 1)", []probe{
			{1.5, 1.5, true}, // an earlier time
			{2, 0.5, true},   // the firing time, an earlier key
			{2, 1, true},     // the firing event's own identity
			{2, 1.5, false},  // the firing time, a later key
			{2.5, 0, false},  // a later time
		})
	})
	s.At(3, func() {})
	s.RunUntil(2)
	if !ran {
		t.Fatal("the event at 2 did not fire")
	}
	check(t, &s, "after RunUntil(2)", []probe{{2, 2, true}, {2, 1.5, true}, {2.5, 0, false}})

	s.RunBefore(3)
	check(t, &s, "after RunBefore(3)", []probe{{2.5, 2.5, true}, {3, 0, false}, {3, 3, false}})

	s.RunUntil(3)
	check(t, &s, "after RunUntil(3)", []probe{{3, 0, true}, {3, 3, true}, {3.25, 0, false}})

	var r Scheduler
	r.RestoreClock(5, 10, 4, 0)
	check(t, &r, "after RestoreClock(5)", []probe{{5, 5, true}, {4, 4, true}, {5.5, 0, false}})

	s.Reset()
	check(t, &s, "after Reset", []probe{{0, 0, true}, {0.5, 0, false}})
}
