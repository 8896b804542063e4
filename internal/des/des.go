// Package des is a minimal discrete-event simulation engine: a scheduler
// with a hierarchical-timing-wheel event queue and a simulated clock in
// float64 seconds. It is the substrate under the packet-level network
// simulator (package netsim) that stands in for ns-2 in this
// reproduction.
//
// The engine is single-threaded and deterministic: events scheduled for
// the same instant fire in scheduling order (FIFO tie-break via a
// monotonically increasing sequence number). Sequence numbers are
// namespaced per Scheduler, so a space-parallel run that gives every
// shard its own Scheduler (see internal/shard) keeps a well-defined
// deterministic order within each shard, and cross-shard injections
// acquire local sequence numbers in the deterministic merge order their
// bundles are drained in.
//
// # Design: hierarchical timing wheel + slot freelist
//
// The event queue is a hierarchical timing wheel (a calendar-queue
// hybrid): time is discretized into 2^-16 s ticks and pending events
// live in multi-level wheels of pointer-free slot buckets — level 0
// spans one tick per bucket, and each higher level spans 256x the
// previous one, so four levels cover ~18 simulated hours. Events beyond
// the horizon wait in an overflow level that cascades back into the
// wheels on rollover. Inserting into the wheel and cancelling are O(1);
// firing pays a small amortized cascade cost as buckets migrate toward
// level 0, so many-hop, many-flow simulations scale without the event
// queue becoming the bottleneck. One insert is not O(1): an event at or
// behind the cursor is merged into the sorted working set of the
// cursor's tick, at a cost that grows with the entries already there,
// so the cursor must not run far ahead of the clock.
//
// The first event scheduled into an empty queue moves the cursor
// straight to its tick and skips the wheels, so the schedule-one/
// fire-one pattern pays no cascade. That jump can be long: a fault plan
// arms its first flap tens of seconds ahead, before any traffic. So the
// jump is undone as soon as an event at another tick is scheduled: the
// cursor returns to the clock's tick and the jumped-to event goes into
// the wheel, once.
//
// Above level 0 a bucket fills once per pass of the cursor (a level-2
// bucket spans one simulated second), so a bucket that kept its array
// would hold its high-water capacity for a whole turn of the wheel. A
// drained bucket's array goes onto a per-level spare stack instead, and
// the next empty bucket of that level to fill takes it: a level holds
// about as many arrays as it has buckets occupied at once.
//
// Determinism is preserved exactly: a bucket is sorted by
// (time, origin, seq) when the cursor reaches it, and ticks partition
// the time axis monotonically, so the global firing order is identical
// to a total (time, origin, seq) priority queue — FIFO within identical
// timestamps included (an event's origin is its causal scheduling time;
// see AtOrigin). Per-level occupancy bitmaps let the cursor jump straight to
// the next non-empty bucket, so sparse queues do not pay for empty
// ticks.
//
// Callbacks and liveness live in a separate slot table indexed by the
// entry's slot id and recycled through a freelist, so steady-state
// scheduling performs zero allocations. A Timer handle is a plain value
// {scheduler, slot, generation}; the slot's generation is bumped when
// the event fires or is cancelled, so a stale handle to a recycled slot
// can never cancel (or observe as active) the slot's new occupant.
// Cancellation is lazy — the bucket entry stays behind and is discarded
// when it surfaces — but the scheduler compacts the buckets whenever
// dead entries outnumber live ones, so cancellation-heavy workloads
// (TFRC no-feedback timers, TCP retransmit timers re-armed on every
// ACK) keep bounded memory.
//
// Reset returns a scheduler to its zero state while keeping every
// bucket's and table's capacity, so a pooled scheduler can be reused
// across simulation runs without reallocating (see the run arena in
// internal/experiments).
package des

import (
	"math/bits"
	"slices"
)

// Event is a callback scheduled to run at a simulated time.
type Event func()

// entry is one pending event in the wheel: pointer-free so that bucket
// moves copy plain words and never trip GC write barriers.
//
// key is the causal scheduling time — the instant the event was brought
// into existence. At sets it to the scheduler's clock; AtOrigin lets a
// caller supply the true origin of an event created elsewhere (a
// cross-shard injection whose emission happened on another scheduler's
// clock). Ties at the same firing time break by (key, seq): for purely
// local scheduling key equals the clock at seq assignment, so the
// (at, key, seq) order coincides with the classic (at, seq) FIFO order.
type entry struct {
	at  float64
	key float64
	seq uint64
	// genslot packs the slot's generation (high 32 bits) and slot id
	// (low 32 bits) into one word, keeping the struct at four fields —
	// the compiler's SSA limit — so entries stay in registers on the
	// hot scheduling path instead of bouncing through memory.
	genslot uint64
}

func packGenSlot(gen uint32, slot int32) uint64 {
	return uint64(gen)<<32 | uint64(uint32(slot))
}

func (e entry) gen() uint32 { return uint32(e.genslot >> 32) }
func (e entry) slot() int32 { return int32(uint32(e.genslot)) }

// slot carries the mutable part of a scheduled event. gen increments
// when the event fires or is cancelled, invalidating outstanding Timer
// handles and any bucket entry still carrying the old generation.
type slot struct {
	fn  Event
	gen uint32
}

// Timer is a generation-checked handle to a scheduled event. It is a
// plain value: copying it is cheap and the zero Timer is inert (Active
// reports false, Cancel is a no-op).
type Timer struct {
	s    *Scheduler
	gen  uint32
	slot int32
}

// Cancel prevents the event from firing. Cancelling an already fired or
// already cancelled timer is a no-op, as is cancelling the zero Timer.
func (t Timer) Cancel() {
	if t.s == nil {
		return
	}
	sl := &t.s.slots[t.slot]
	if sl.gen != t.gen {
		return // already fired, cancelled, or slot recycled
	}
	sl.gen++
	sl.fn = nil
	t.s.free = append(t.s.free, t.slot)
	t.s.live--
	t.s.dead++
	t.s.maybeCompact()
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.s != nil && t.s.slots[t.slot].gen == t.gen
}

// Wheel geometry. A tick is 2^-16 s (~15.3 µs); each level's bucket
// spans 256x the previous level's, so the four levels cover 2^32 ticks
// (~18 simulated hours) ahead of the cursor. Events beyond that wait in
// the overflow level.
const (
	tickBits   = 16 // ticks per second = 1 << tickBits
	levelBits  = 8  // buckets per level = 1 << levelBits
	numLevels  = 4
	levelSlots = 1 << levelBits
	levelMask  = levelSlots - 1
	levelWords = levelSlots / 64

	ticksPerSecond = 1 << tickBits
	// maxTick caps the tick of very distant events so the float-to-int
	// conversion below is always in range; order among capped events is
	// still exact because buckets sort by (at, key, seq).
	maxTick = uint64(1) << 62
)

// tickOf discretizes a timestamp. It is monotone: t1 <= t2 implies
// tickOf(t1) <= tickOf(t2), which is all correctness needs — events of
// one tick are ordered by (at, key, seq) when their bucket is reached.
func tickOf(t float64) uint64 {
	ticks := t * ticksPerSecond
	if ticks >= float64(maxTick) {
		return maxTick
	}
	return uint64(ticks)
}

// level is one wheel: a ring of buckets with an occupancy bitmap so the
// cursor can jump straight to the next non-empty bucket. Above level 0,
// spare holds the arrays of drained buckets for the next bucket to fill.
type level struct {
	bucket [levelSlots][]entry
	bitmap [levelWords]uint64
	spare  [][]entry
}

// next returns the first occupied bucket index >= from, if any.
func (l *level) next(from int) (int, bool) {
	if from >= levelSlots {
		return 0, false
	}
	w := from >> 6
	word := l.bitmap[w] &^ (1<<(uint(from)&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
		w++
		if w >= levelWords {
			return 0, false
		}
		word = l.bitmap[w]
	}
}

// Scheduler owns the simulated clock and the pending event set.
// The zero value is ready to use at time 0.
type Scheduler struct {
	now      float64
	seq      uint64
	fired    uint64
	cascaded uint64

	// cur is the working set at the wheel cursor: entries with tick <=
	// curTick, sorted by (at, seq); cur[curIdx] is the next candidate.
	cur    []entry
	curIdx int
	// curTick is the wheel cursor. All bucketed entries have tick >
	// curTick; it trails no pending event and may run ahead of Now when
	// RunUntil stops between events.
	curTick uint64
	// jumped is set while the cursor sits on the tick of an event that
	// was scheduled into an otherwise empty queue (see insert).
	jumped   bool
	levels   [numLevels]level
	overflow []entry // events beyond the wheel horizon

	slots []slot
	free  []int32 // recycled slot ids, LIFO
	live  int     // pending non-cancelled events
	dead  int     // cancelled entries still buffered
}

// Now returns the current simulated time in seconds.
func (s *Scheduler) Now() float64 { return s.now }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Cascaded returns the number of entry migrations the wheel has
// performed — entries re-inserted from a higher level toward level 0
// as the cursor advanced. The ratio cascaded/fired is the amortized
// wheel-maintenance cost per event; the shard snapshots publish it as
// a live utilization signal to watch for pathological wheel occupancy.
// (It is schedule-dependent — per-wheel occupancy differs between the
// serial engine and a partitioned run — so it stays out of the
// executor-invariant metrics registry.)
func (s *Scheduler) Cascaded() uint64 { return s.cascaded }

// Pending returns the number of live (non-cancelled) events still
// queued.
func (s *Scheduler) Pending() int { return s.live }

// Reset returns the scheduler to its zero state — clock at 0, no
// pending events, all Timer handles inert — while retaining the
// capacity of every bucket, the slot table and the freelist, so a
// pooled scheduler runs its next simulation without reallocating.
func (s *Scheduler) Reset() {
	s.now, s.seq, s.fired, s.cascaded = 0, 0, 0, 0
	s.cur = s.cur[:0]
	s.curIdx = 0
	s.curTick = 0
	s.jumped = false
	s.overflow = s.overflow[:0]
	for l := range s.levels {
		lv := &s.levels[l]
		for w, word := range lv.bitmap {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				j := w<<6 + b
				lv.bucket[j] = lv.bucket[j][:0]
			}
			lv.bitmap[w] = 0
		}
	}
	s.live, s.dead = 0, 0
	s.free = s.free[:0]
	for i := range s.slots {
		s.slots[i].fn = nil
		s.slots[i].gen++ // invalidate handles from the previous run
		s.free = append(s.free, int32(i))
	}
}

// At schedules fn at the absolute simulated time at, which must not be in
// the past, and returns a cancellable handle.
func (s *Scheduler) At(at float64, fn Event) Timer {
	return s.schedule(at, s.now, fn)
}

// AtOrigin schedules fn at the absolute simulated time at with an
// explicit causal origin: the simulated instant the event came into
// existence, possibly on another scheduler's clock. Should several
// events land on the same firing time, they fire in origin order before
// falling back to scheduling order, so a cross-shard injection keeps
// the position its emission time would have earned it on a serial
// engine, even though it is scheduled late (at the window barrier,
// after every window-local event already drew its sequence number).
// origin must not exceed at; it may precede the local clock.
func (s *Scheduler) AtOrigin(at, origin float64, fn Event) Timer {
	if origin > at {
		panic("des: origin after firing time")
	}
	return s.schedule(at, origin, fn)
}

func (s *Scheduler) schedule(at, key float64, fn Event) Timer {
	if at < s.now {
		panic("des: scheduling into the past")
	}
	if fn == nil {
		panic("des: nil event")
	}
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{})
		id = int32(len(s.slots) - 1)
	}
	sl := &s.slots[id]
	sl.fn = fn
	s.live++
	s.insert(entry{at: at, key: key, seq: s.seq, genslot: packGenSlot(sl.gen, id)})
	s.seq++
	return Timer{s: s, gen: sl.gen, slot: id}
}

// After schedules fn after delay seconds (delay >= 0).
func (s *Scheduler) After(delay float64, fn Event) Timer {
	if delay < 0 {
		panic("des: negative delay")
	}
	return s.At(s.now+delay, fn)
}

// before reports whether entry a fires before entry b: earlier firing
// time, then earlier causal origin, then FIFO by sequence number. For
// events scheduled with At the key is the clock at seq assignment, so
// key order and seq order agree and the net effect is the classic
// (at, seq) FIFO; the key only decides when AtOrigin is in play.
func before(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// cmpEntry is the slices.SortFunc order matching before.
func cmpEntry(a, b entry) int {
	switch {
	case before(a, b):
		return -1
	case before(b, a):
		return 1
	default:
		return 0
	}
}

// insert places an entry into the working set, a wheel bucket, or the
// overflow level, keyed by its tick relative to the cursor.
func (s *Scheduler) insert(e entry) {
	t := tickOf(e.at)
	if s.jumped && t != s.curTick {
		s.rewind()
	}
	if t <= s.curTick {
		// At or behind the cursor (the cursor may run ahead of Now):
		// merge into the sorted working set.
		s.curInsert(e)
		return
	}
	if s.live+s.dead == 1 && s.curIdx == len(s.cur) {
		// Only event in the queue: jump the cursor straight to it and
		// skip the wheels — the schedule-one/fire-one pattern pays no
		// cascade this way.
		s.curTick = t
		s.jumped = true
		s.curInsert(e)
		return
	}
	diff := t ^ s.curTick
	lvl := (bits.Len64(diff) - 1) / levelBits
	if lvl >= numLevels {
		s.overflow = append(s.overflow, e)
		return
	}
	shift := uint(lvl) * levelBits
	j := int(t>>shift) & levelMask
	lv := &s.levels[lvl]
	b := lv.bucket[j]
	if cap(b) == 0 && len(lv.spare) > 0 {
		n := len(lv.spare) - 1
		b = lv.spare[n]
		lv.spare[n] = nil
		lv.spare = lv.spare[:n]
	}
	lv.bucket[j] = append(b, e)
	lv.bitmap[j>>6] |= 1 << (uint(j) & 63)
}

// rewind undoes a singleton jump before an event at another tick is
// inserted; left in place, a far jump would put every later insert
// behind the cursor until the clock caught up. The cursor returns to the
// clock's tick and the working set, all of it at the jumped-to tick, is
// filed into the wheel: each entry now lies beyond the cursor, and none
// is the only one pending (the entry being inserted is counted), so
// insert takes neither the working-set path nor the jump for it.
func (s *Scheduler) rewind() {
	s.jumped = false
	now := tickOf(s.now)
	if now == s.curTick {
		return
	}
	held := s.cur[s.curIdx:]
	s.cur = s.cur[:0]
	s.curIdx = 0
	s.curTick = now
	for _, e := range held {
		s.insert(e)
	}
}

// curInsert merges an entry into the sorted working set.
func (s *Scheduler) curInsert(e entry) {
	if n := len(s.cur); s.curIdx == n {
		// Empty working set: the entry is the whole of it.
		s.cur = append(s.cur[:0], e)
		s.curIdx = 0
		return
	} else if !before(e, s.cur[n-1]) {
		// Sorts last (the common cascade order): plain append.
		s.cur = append(s.cur, e)
		return
	}
	if s.curIdx > 0 {
		// Drop the consumed prefix so the buffer stays bounded.
		n := copy(s.cur, s.cur[s.curIdx:])
		s.cur = s.cur[:n]
		s.curIdx = 0
	}
	lo, hi := 0, len(s.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if before(s.cur[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.cur = append(s.cur, entry{})
	copy(s.cur[lo+1:], s.cur[lo:])
	s.cur[lo] = e
}

// takeBucket detaches bucket j of level lvl, clearing its occupancy
// bit, and returns its entries. A level-0 bucket keeps its array. Above
// level 0 the array goes onto the level's spare stack at once: the
// caller re-files the entries at lower levels only, so no insert takes
// the array back before the caller has read them.
func (s *Scheduler) takeBucket(lvl, j int) []entry {
	lv := &s.levels[lvl]
	b := lv.bucket[j]
	lv.bitmap[j>>6] &^= 1 << (uint(j) & 63)
	if lvl == 0 {
		lv.bucket[j] = b[:0]
	} else {
		lv.bucket[j] = nil
		lv.spare = append(lv.spare, b[:0])
	}
	return b
}

// refill advances the cursor to the next occupied tick and loads its
// events into the working set, cascading higher-level buckets toward
// level 0 on the way. It reports false when nothing is pending beyond
// the working set.
func (s *Scheduler) refill() bool {
	for {
		if s.curIdx < len(s.cur) {
			return true
		}
		s.cur = s.cur[:0]
		s.curIdx = 0
		found := false
		for lvl := 0; lvl < numLevels; lvl++ {
			shift := uint(lvl) * levelBits
			idx := int(s.curTick>>shift) & levelMask
			j, ok := s.levels[lvl].next(idx + 1)
			if !ok {
				continue
			}
			// Jump the cursor to the start of the found bucket's span.
			below := uint64(1)<<(shift+levelBits) - 1
			s.curTick = s.curTick&^below | uint64(j)<<shift
			b := s.takeBucket(lvl, j)
			if lvl == 0 {
				// A level-0 bucket holds exactly the events of tick
				// curTick: sort once and it becomes the working set.
				s.cur = append(s.cur, b...)
				if len(s.cur) > 1 {
					sortEntries(s.cur)
				}
			} else {
				// Cascade: re-keyed against the new cursor, each entry
				// lands at a lower level (or straight in the working
				// set when its tick is the cursor's).
				s.cascaded += uint64(len(b))
				for _, e := range b {
					s.insert(e)
				}
			}
			found = true
			break
		}
		if found {
			continue
		}
		if len(s.overflow) > 0 {
			s.rollover()
			continue
		}
		return false
	}
}

// rollover runs when the wheels drain while far-future events wait in
// the overflow level: the cursor jumps to the earliest overflow tick
// and every overflow event within the new horizon cascades into the
// wheels.
func (s *Scheduler) rollover() {
	minTick := maxTick + 1
	for i := range s.overflow {
		if t := tickOf(s.overflow[i].at); t < minTick {
			minTick = t
		}
	}
	s.curTick = minTick
	keep := s.overflow[:0]
	for _, e := range s.overflow {
		if tickOf(e.at)^s.curTick >= uint64(1)<<(numLevels*levelBits) {
			keep = append(keep, e)
			continue
		}
		s.insert(e)
	}
	s.overflow = keep
}

// sortEntries orders a bucket by (at, key, seq): insertion sort for the
// typical handful of events, pdqsort beyond that. Both are
// allocation-free.
func sortEntries(es []entry) {
	if len(es) <= 24 {
		for i := 1; i < len(es); i++ {
			e := es[i]
			j := i - 1
			for j >= 0 && before(e, es[j]) {
				es[j+1] = es[j]
				j--
			}
			es[j+1] = e
		}
		return
	}
	slices.SortFunc(es, cmpEntry)
}

// nextLive positions cur[curIdx] on the next live event, discarding
// cancelled entries as they surface. It reports false when the queue
// has no live events.
func (s *Scheduler) nextLive() bool {
	for {
		for s.curIdx < len(s.cur) {
			e := s.cur[s.curIdx]
			if s.slots[e.slot()].gen == e.gen() {
				return true
			}
			s.curIdx++ // lazily discard a cancelled entry
			s.dead--
		}
		if !s.refill() {
			return false
		}
	}
}

// maybeCompact rebuilds the buckets without dead entries once they
// outnumber the live ones, bounding memory under heavy cancellation.
func (s *Scheduler) maybeCompact() {
	if s.dead <= 64 || s.dead <= s.live {
		return
	}
	liveOf := func(es []entry) []entry {
		w := 0
		for _, e := range es {
			if s.slots[e.slot()].gen == e.gen() {
				es[w] = e
				w++
			}
		}
		return es[:w]
	}
	// The working set keeps its sorted order (filtering preserves it);
	// the consumed prefix goes too.
	w := 0
	for r := s.curIdx; r < len(s.cur); r++ {
		e := s.cur[r]
		if s.slots[e.slot()].gen == e.gen() {
			s.cur[w] = e
			w++
		}
	}
	s.cur = s.cur[:w]
	s.curIdx = 0
	for l := range s.levels {
		lv := &s.levels[l]
		for wd, word := range lv.bitmap {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				j := wd<<6 + b
				lv.bucket[j] = liveOf(lv.bucket[j])
				if len(lv.bucket[j]) == 0 {
					lv.bitmap[wd] &^= 1 << uint(b)
				}
			}
		}
	}
	s.overflow = liveOf(s.overflow)
	s.dead = 0
}

// fire executes a live entry the cursor has already consumed.
func (s *Scheduler) fire(e entry) {
	sl := &s.slots[e.slot()]
	fn := sl.fn
	sl.fn = nil
	sl.gen++
	s.free = append(s.free, e.slot())
	s.live--
	s.now = e.at
	s.jumped = false
	s.fired++
	fn()
}

// Step executes the next pending event, advancing the clock. It returns
// false when the queue is empty.
func (s *Scheduler) Step() bool {
	if !s.nextLive() {
		return false
	}
	e := s.cur[s.curIdx]
	s.curIdx++
	s.fire(e)
	return true
}

// RunUntil executes events until the clock would pass the deadline or the
// queue drains; the clock finishes exactly at the deadline.
func (s *Scheduler) RunUntil(deadline float64) {
	if deadline < s.now {
		panic("des: deadline in the past")
	}
	for s.nextLive() {
		e := s.cur[s.curIdx]
		if e.at > deadline {
			break
		}
		s.curIdx++
		s.fire(e)
	}
	s.now = deadline
}

// RunBefore executes every event strictly earlier than limit and leaves
// the clock exactly at limit. It is the window primitive for bounded-
// horizon (conservative lookahead) execution: a shard advances through
// half-open windows [t, t+Δ) with RunBefore, exchanges cross-shard
// bundles at the barrier, and finishes a phase with RunUntil so the
// phase boundary itself (inclusive) matches the serial engine's.
func (s *Scheduler) RunBefore(limit float64) {
	if limit < s.now {
		panic("des: limit in the past")
	}
	for s.nextLive() {
		e := s.cur[s.curIdx]
		if e.at >= limit {
			break
		}
		s.curIdx++
		s.fire(e)
	}
	s.now = limit
}

// Run executes events until the queue drains. Use RunUntil for
// simulations with self-sustaining event chains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}
