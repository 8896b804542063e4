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
// # Design: a timing wheel threaded through the slot table
//
// Every pending event occupies one slot of a slot table, which holds
// its callback and its (time, origin, seq) identity. Slots are recycled
// through a freelist, so steady-state scheduling performs zero
// allocations, and the table is all the memory pending events take: it
// grows to the peak number of live events, whatever the burst pattern.
//
// The event queue is a hierarchical timing wheel (a calendar-queue
// hybrid): time is discretized into 2^-16 s ticks; level 0 spans one
// tick per bucket, and each higher level spans 256x the previous one,
// so four levels cover ~18 simulated hours. Events beyond the horizon
// wait in an overflow list that cascades back into the wheels on
// rollover. Each bucket, and the overflow, is a FIFO doubly-linked list
// threaded through the slot table by slot id: per-level head and tail
// arrays sit beside an occupancy bitmap that lets the cursor jump
// straight to the next non-empty bucket, so sparse queues do not pay
// for empty ticks. Inserting appends at a list's tail and cancelling
// unlinks, both O(1); firing pays a small amortized cascade cost as
// buckets migrate toward level 0, and a cascade appends in list order,
// so a bucket's events reach level 0 in the order they were filed.
//
// When the cursor reaches a tick, the events of its level-0 bucket are
// copied into a working set sorted by (time, origin, seq). One insert
// is not O(1): an event at or behind the cursor is merged into that
// sorted working set, at a cost that grows with the entries already
// there, so the cursor must not run far ahead of the clock.
//
// The first event scheduled into an empty queue moves the cursor
// straight to its tick and skips the wheels, so the schedule-one/
// fire-one pattern pays no cascade. That jump can be long: a fault plan
// arms its first flap tens of seconds ahead, before any traffic. So the
// jump is undone as soon as an event at another tick is scheduled: the
// cursor returns to the clock's tick and the jumped-to event goes into
// the wheel, once.
//
// Determinism is preserved exactly: ticks partition the time axis
// monotonically and each tick's events are sorted by (time, origin,
// seq) before any fires, so the global firing order is identical to a
// total (time, origin, seq) priority queue — FIFO within identical
// timestamps included (an event's origin is its causal scheduling time;
// see AtOrigin).
//
// A Timer handle is a plain value {scheduler, slot, generation}; the
// slot's generation is bumped when the event fires or is cancelled, so
// a stale handle to a recycled slot can never cancel (or observe as
// active) the slot's new occupant. Cancelling unlinks the event at
// once. The one exception is an event already copied into the working
// set: its copy stays behind and is discarded when it surfaces, and the
// working set empties every tick. Nothing else is cancelled lazily, so
// cancellation-heavy workloads (TFRC no-feedback timers, TCP retransmit
// timers re-armed on every ACK) need no compaction.
//
// Reset returns a scheduler to its zero state while keeping the slot
// table's and the working set's capacity, so a pooled scheduler can be
// reused across simulation runs without reallocating (see the run arena
// in internal/experiments).
//
// # Passed: state that settles instead of firing
//
// A component whose next change happens at an instant it already knows
// (a link's end of serialization) need not schedule an event for it.
// It keeps the instant and its causal key as state and settles it
// whenever it is touched: Passed reports whether an event with that
// identity would already have fired, in the scheduler's (time, key)
// order. Inside an event, that is every identity ordered before the
// firing event's; after RunUntil, everything at the clock; after
// RunBefore, nothing at it.
package des

import (
	"math"
	"math/bits"
	"slices"
)

// Event is a callback scheduled to run at a simulated time.
type Event func()

// entry is a pending event's copy in the working set: pointer-free so
// that sorting moves plain words and never trips GC write barriers.
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

// slot holds one scheduled event. gen increments when the event fires
// or is cancelled, invalidating outstanding Timer handles and any
// working-set copy still carrying the old generation. Slot 0 never
// holds an event, so id 0 ends every list.
type slot struct {
	fn  Event
	at  float64
	key float64
	seq uint64
	gen uint32
	// prev and next link the slot into the bucket or overflow list
	// that holds it (see locate).
	prev, next int32
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
	if !t.Active() {
		return // already fired, cancelled, or slot recycled
	}
	s := t.s
	sl := &s.slots[t.slot]
	if tk := tickOf(sl.at); tk > s.curTick {
		s.unlink(tk, t.slot)
	} // else the working set holds a copy, discarded when it surfaces
	sl.gen++
	sl.fn = nil
	s.free = append(s.free, t.slot)
	s.live--
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.s != nil && t.s.slots[t.slot].gen == t.gen
}

// Wheel geometry. A tick is 2^-16 s (~15.3 µs); each level's bucket
// spans 256x the previous level's, so the four levels cover 2^32 ticks
// (~18 simulated hours) ahead of the cursor. Events beyond that wait in
// the overflow list.
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
	// still exact because the working set sorts by (at, key, seq).
	maxTick = uint64(1) << 62
)

// tickOf discretizes a timestamp. It is monotone: t1 <= t2 implies
// tickOf(t1) <= tickOf(t2), which is all correctness needs — events of
// one tick are ordered by (at, key, seq) when the cursor reaches it.
func tickOf(t float64) uint64 {
	ticks := t * ticksPerSecond
	if ticks >= float64(maxTick) {
		return maxTick
	}
	return uint64(ticks)
}

// list is a FIFO of pending events threaded through the slot table by
// slot id; {0, 0} is empty.
type list struct{ head, tail int32 }

// level is one wheel: a ring of bucket lists with an occupancy bitmap
// so the cursor can jump straight to the next non-empty bucket.
type level struct {
	bucket [levelSlots]list
	bitmap [levelWords]uint64
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
	now float64
	// key is the causal key of the event firing at now: +Inf once
	// RunUntil has run every event at now, -Inf once RunBefore stopped
	// short of them (see Passed).
	key      float64
	seq      uint64
	fired    uint64
	cascaded uint64

	// cur is the working set at the wheel cursor: copies of the entries
	// with tick <= curTick, sorted by (at, key, seq); cur[curIdx] is the
	// next candidate.
	cur    []entry
	curIdx int
	// curTick is the wheel cursor. All listed events have tick >
	// curTick; it trails no pending event and may run ahead of Now when
	// RunUntil stops between events.
	curTick uint64
	// jumped is set while the cursor sits on the tick of an event that
	// was scheduled into an otherwise empty queue (see insert).
	jumped   bool
	levels   [numLevels]level
	overflow list // events beyond the wheel horizon

	slots []slot
	free  []int32 // recycled slot ids, LIFO
	live  int     // pending non-cancelled events
}

// Now returns the current simulated time in seconds.
func (s *Scheduler) Now() float64 { return s.now }

// Passed reports whether an event at time at with causal key key would
// already have fired: it lies before the clock, or at the clock and no
// later in key order than the event firing now. Between runs every event
// at the clock counts as fired after RunUntil and none after RunBefore;
// on a new or Reset scheduler every event at time 0 counts as fired,
// since no causal key exceeds its firing time. An identity equal to the
// firing event's counts as fired, so a caller settling state with Passed
// orders itself before an event that ties with it in both time and key,
// whatever their sequence numbers.
func (s *Scheduler) Passed(at, key float64) bool {
	return at < s.now || at == s.now && key <= s.key
}

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Cascaded returns the number of event migrations the wheel has
// performed — pending events re-filed from a higher level toward level
// 0 as the cursor advanced. Cancelled events leave the wheel at once,
// so only live events migrate. The ratio cascaded/fired is the
// amortized wheel-maintenance cost per event; the shard snapshots
// publish it as a live utilization signal to watch for pathological
// wheel occupancy. (It is schedule-dependent — per-wheel occupancy
// differs between the serial engine and a partitioned run — so it stays
// out of the executor-invariant metrics registry.)
func (s *Scheduler) Cascaded() uint64 { return s.cascaded }

// Pending returns the number of live (non-cancelled) events still
// queued.
func (s *Scheduler) Pending() int { return s.live }

// Reset returns the scheduler to its zero state — clock at 0, no
// pending events, all Timer handles inert — while retaining the
// capacity of the slot table, the freelist and the working set, so a
// pooled scheduler runs its next simulation without reallocating.
func (s *Scheduler) Reset() {
	s.now, s.key, s.seq, s.fired, s.cascaded = 0, 0, 0, 0, 0
	s.cur = s.cur[:0]
	s.curIdx = 0
	s.curTick = 0
	s.jumped = false
	s.levels = [numLevels]level{}
	s.overflow = list{}
	s.live = 0
	s.free = s.free[:0]
	for i := 1; i < len(s.slots); i++ {
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
	seq := s.seq
	s.seq++
	return s.arm(at, key, seq, fn)
}

// arm files an event with the given identity into a free slot.
func (s *Scheduler) arm(at, key float64, seq uint64, fn Event) Timer {
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.slots) == 0 {
			s.slots = append(s.slots, slot{}) // slot 0 ends every list
		}
		s.slots = append(s.slots, slot{})
		id = int32(len(s.slots) - 1)
	}
	sl := &s.slots[id]
	sl.fn, sl.at, sl.key, sl.seq = fn, at, key, seq
	s.live++
	s.insert(entry{at: at, key: key, seq: seq, genslot: packGenSlot(sl.gen, id)})
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

// insert files an event into the working set, a wheel bucket, or the
// overflow list, keyed by its tick relative to the cursor.
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
	if s.live == 1 && s.curIdx == len(s.cur) {
		// Only event in the queue: jump the cursor straight to it and
		// skip the wheels — the schedule-one/fire-one pattern pays no
		// cascade this way.
		s.curTick = t
		s.jumped = true
		s.curInsert(e)
		return
	}
	lvl, j := s.locate(t)
	if lvl < numLevels {
		s.levels[lvl].bitmap[j>>6] |= 1 << (uint(j) & 63)
	}
	l := s.list(lvl, j)
	id := e.slot()
	sl := &s.slots[id]
	sl.prev, sl.next = l.tail, 0
	if l.tail != 0 {
		s.slots[l.tail].next = id
	} else {
		l.head = id
	}
	l.tail = id
}

// locate returns the level and bucket that hold an event at tick t
// beyond the cursor; level numLevels is the overflow list. An event
// stays where locate first put it until its bucket cascades: the
// cursor never passes an occupied bucket, so the highest bit in which
// t and the cursor differ does not move. Cancel relies on this to find
// an event's list from its tick.
func (s *Scheduler) locate(t uint64) (lvl, j int) {
	lvl = int(uint(bits.Len64(t^s.curTick)-1) / levelBits) // t^curTick != 0
	if lvl >= numLevels {
		return numLevels, 0
	}
	return lvl, int(t>>(uint(lvl)*levelBits)) & levelMask
}

// list returns the list at a level and bucket locate returned.
func (s *Scheduler) list(lvl, j int) *list {
	if lvl == numLevels {
		return &s.overflow
	}
	return &s.levels[lvl].bucket[j]
}

// unlink removes the slot of an event at tick t beyond the cursor from
// its list, clearing the bucket's occupancy bit when the list empties.
func (s *Scheduler) unlink(t uint64, id int32) {
	lvl, j := s.locate(t)
	l := s.list(lvl, j)
	sl := &s.slots[id]
	if sl.prev != 0 {
		s.slots[sl.prev].next = sl.next
	} else {
		l.head = sl.next
	}
	if sl.next != 0 {
		s.slots[sl.next].prev = sl.prev
	} else {
		l.tail = sl.prev
	}
	if l.head == 0 && lvl < numLevels {
		s.levels[lvl].bitmap[j>>6] &^= 1 << (uint(j) & 63)
	}
}

// rewind undoes a singleton jump before an event at another tick is
// inserted; left in place, a far jump would put every later insert
// behind the cursor until the clock caught up. The cursor returns to the
// clock's tick and the live part of the working set, all of it at the
// jumped-to tick, is filed into the wheel: each event now lies beyond
// the cursor, and none is the only one pending (the event being
// inserted is counted), so insert takes neither the working-set path
// nor the jump for it.
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
		if s.slots[e.slot()].gen == e.gen() {
			s.insert(e)
		}
	}
}

// entryOf returns a listed event's working-set entry.
func (s *Scheduler) entryOf(id int32) entry {
	sl := &s.slots[id]
	return entry{at: sl.at, key: sl.key, seq: sl.seq, genslot: packGenSlot(sl.gen, id)}
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
			lv := &s.levels[lvl]
			j, ok := lv.next(int(s.curTick>>shift)&levelMask + 1)
			if !ok {
				continue
			}
			// Jump the cursor to the start of the found bucket's span
			// and detach the bucket's list.
			below := uint64(1)<<(shift+levelBits) - 1
			s.curTick = s.curTick&^below | uint64(j)<<shift
			id := lv.bucket[j].head
			lv.bucket[j] = list{}
			lv.bitmap[j>>6] &^= 1 << (uint(j) & 63)
			if lvl == 0 {
				// A level-0 bucket holds exactly the events of tick
				// curTick: copy and sort once and it becomes the
				// working set.
				for ; id != 0; id = s.slots[id].next {
					s.cur = append(s.cur, s.entryOf(id))
				}
				if len(s.cur) > 1 {
					sortEntries(s.cur)
				}
			} else {
				// Cascade: re-keyed against the new cursor, each event
				// lands at a lower level (or straight in the working
				// set when its tick is the cursor's).
				for id != 0 {
					next := s.slots[id].next
					s.cascaded++
					s.insert(s.entryOf(id))
					id = next
				}
			}
			found = true
			break
		}
		if found {
			continue
		}
		if s.overflow.head != 0 {
			s.rollover()
			continue
		}
		return false
	}
}

// rollover runs when the wheels drain while far-future events wait in
// the overflow list: the cursor jumps to the earliest overflow tick and
// every overflow event is re-filed against it, so those within the new
// horizon cascade into the wheels and the rest return to the overflow.
func (s *Scheduler) rollover() {
	minTick := maxTick + 1
	for id := s.overflow.head; id != 0; id = s.slots[id].next {
		minTick = min(minTick, tickOf(s.slots[id].at))
	}
	s.curTick = minTick
	id := s.overflow.head
	s.overflow = list{}
	for id != 0 {
		next := s.slots[id].next
		s.insert(s.entryOf(id))
		id = next
	}
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
// cancelled copies as they surface. It reports false when the queue has
// no live events.
func (s *Scheduler) nextLive() bool {
	for {
		for s.curIdx < len(s.cur) {
			e := s.cur[s.curIdx]
			if s.slots[e.slot()].gen == e.gen() {
				return true
			}
			s.curIdx++ // discard a copy cancelled after it was taken
		}
		if !s.refill() {
			return false
		}
	}
}

// fire executes a live entry the cursor has already consumed.
func (s *Scheduler) fire(e entry) {
	sl := &s.slots[e.slot()]
	fn := sl.fn
	sl.fn = nil
	sl.gen++
	s.free = append(s.free, e.slot())
	s.live--
	s.now, s.key = e.at, e.key
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
	s.now, s.key = deadline, math.Inf(1)
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
	s.now, s.key = limit, math.Inf(-1)
}

// Run executes events until the queue drains. Use RunUntil for
// simulations with self-sustaining event chains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}
