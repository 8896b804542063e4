package des

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/rng"
)

// source supplies the draws of a churn run: Uint64 returns 16 bits and
// Float64 a value in [0, 1) with 24 bits. FuzzScheduler decodes them
// from its input; TestWheelVsReferenceHeapChurn draws them from a
// seeded RNG through a recorder, whose output replays the same run as
// fuzz input.
type source interface {
	Uint64() uint64
	Float64() float64
}

// byteSource decodes draws from fuzz input, little-endian: two bytes
// per Uint64, three per Float64, zeros once the input runs out.
type byteSource struct{ b []byte }

func (s *byteSource) next(n int) uint64 {
	var v uint64
	for i := 0; i < n && len(s.b) > 0; i++ {
		v |= uint64(s.b[0]) << (8 * i)
		s.b = s.b[1:]
	}
	return v
}

func (s *byteSource) Uint64() uint64   { return s.next(2) }
func (s *byteSource) Float64() float64 { return float64(s.next(3)) / (1 << 24) }

// recorder draws from an RNG, truncated to what a byteSource decodes,
// and records the bytes that decode to the same draws.
type recorder struct {
	r   *rng.RNG
	out []byte
}

func (r *recorder) emit(v uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		r.out = append(r.out, byte(v>>(8*i)))
	}
	return v
}

func (r *recorder) Uint64() uint64   { return r.emit(r.r.Uint64()&0xffff, 2) }
func (r *recorder) Float64() float64 { return float64(r.emit(r.r.Uint64()>>40, 3)) / (1 << 24) }

func bernoulli(src source, p float64) bool { return src.Float64() < p }

// boundaryDelay draws delays biased toward the wheel's sore spots: the
// tick quantum, the exact spans of each cascade level, the far-future
// horizon, and zero (same-instant FIFO ties).
func boundaryDelay(r source) float64 {
	const tick = 1.0 / ticksPerSecond
	switch r.Uint64() % 8 {
	case 0: // inside the current tick
		return r.Float64() * tick / 2
	case 1: // exactly on a tick edge
		return float64(r.Uint64()%512) * tick
	case 2, 3: // straddling a cascade-level span: 256^L ticks ± 1 tick
		lvl := 1 + int(r.Uint64()%3)
		span := float64(uint64(1)<<(uint(lvl)*levelBits)) * tick
		return span + float64(int(r.Uint64()%3)-1)*tick
	case 4: // beyond the wheel horizon (overflow list)
		span := float64(uint64(1)<<(numLevels*levelBits)) * tick
		return span * (1 + r.Float64()*2)
	case 5: // same instant as a pending event (seq tie-break)
		return 0
	default:
		return r.Float64() * 3
	}
}

// issued is one Timer handed out during a churn run, with the id of its
// event.
type issued struct {
	id int
	tm Timer
}

// churnRun is a scheduler and the reference heap driven in lockstep.
type churnRun struct {
	tb      testing.TB
	name    string
	src     source
	s       *Scheduler
	ref     *refHeap
	dead    map[int]bool     // cancelled ids, skipped by the reference heap
	live    map[int]Timer    // pending ids and their current handles
	events  map[int]refEvent // every event's (at, key, seq) by id
	handles []issued         // every handle, live, fired, cancelled or stale
	got     []int            // ids in the wheel's firing order
	want    []int            // ids in the reference's firing order
}

func (w *churnRun) fail(format string, args ...any) {
	w.tb.Helper()
	w.tb.Fatalf(w.name+": "+format, args...)
}

func (w *churnRun) callback(id int) Event {
	return func() {
		w.got = append(w.got, id)
		delete(w.live, id)
	}
}

// schedule arms an event delay ahead with At or, withOrigin, with
// AtOrigin at an origin on the firing time, before the clock, or in
// between.
func (w *churnRun) schedule(delay float64, withOrigin bool) {
	id := len(w.events)
	now := w.s.Now()
	e := refEvent{at: now + delay, key: now, seq: w.s.Seq(), id: id}
	var tm Timer
	if withOrigin {
		switch w.src.Uint64() % 3 {
		case 0:
			e.key = e.at
		case 1:
			e.key = now - w.src.Float64()
		default:
			e.key = min(e.at, now+(e.at-now)*w.src.Float64())
		}
		tm = w.s.AtOrigin(e.at, e.key, w.callback(id))
	} else {
		tm = w.s.At(e.at, w.callback(id))
	}
	w.events[id] = e
	w.ref.push(e)
	w.live[id] = tm
	w.handles = append(w.handles, issued{id, tm})
}

// cancel cancels a handle; only a pending event's current handle
// changes the reference.
func (w *churnRun) cancel(h issued) {
	h.tm.Cancel()
	if tm, ok := w.live[h.id]; ok && tm == h.tm {
		delete(w.live, h.id)
		w.dead[h.id] = true
	}
}

func (w *churnRun) step() {
	fired := w.s.Step()
	e, ok := w.ref.popLive(w.dead)
	if fired != ok {
		w.fail("wheel fired=%v, reference fired=%v", fired, ok)
	}
	if ok {
		w.want = append(w.want, e.id)
	}
}

// advance runs both queues to a deadline drawn up to half again past
// the next live event, so most deadlines fall between events; RunBefore
// excludes an event exactly at the deadline.
func (w *churnRun) advance() {
	now := w.s.Now()
	deadline := now + w.src.Float64()*3
	if e, ok := w.ref.peekLive(w.dead); ok {
		deadline = now + w.src.Float64()*1.5*(e.at-now)
		if bernoulli(w.src, 0.1) {
			deadline = e.at
		}
	}
	before := bernoulli(w.src, 0.5)
	if before {
		w.s.RunBefore(deadline)
	} else {
		w.s.RunUntil(deadline)
	}
	for {
		e, ok := w.ref.peekLive(w.dead)
		if !ok || e.at > deadline || before && e.at == deadline {
			break
		}
		w.ref.pop()
		w.want = append(w.want, e.id)
	}
}

func (w *churnRun) reset() {
	w.s.Reset()
	w.ref = &refHeap{}
	clear(w.dead)
	clear(w.live)
}

// restore snapshots the pending set through Timer.State and restores it
// into a fresh scheduler, which carries on in place of the old one.
func (w *churnRun) restore() {
	ids := make([]int, 0, len(w.live))
	for id := range w.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	sts := make([]checkpoint.TimerState, len(ids))
	for i, id := range ids {
		e := w.events[id]
		sts[i] = w.live[id].State()
		if want := (checkpoint.TimerState{OK: true, At: e.at, Key: e.key, Seq: e.seq}); sts[i] != want {
			w.fail("State of event %d = %+v, want %+v", id, sts[i], want)
		}
	}
	old := w.s
	w.s = &Scheduler{}
	w.s.RestoreClock(old.Now(), old.Seq(), old.Fired(), old.Cascaded())
	for i, id := range ids {
		tm := w.s.RestoreTimer(sts[i], w.callback(id))
		w.live[id] = tm
		w.handles = append(w.handles, issued{id, tm})
	}
}

// check compares the firing orders and the pending counts.
func (w *churnRun) check(op string) {
	w.tb.Helper()
	if !slices.Equal(w.got, w.want) {
		w.fail("after %s: wheel fired %v, reference %v", op, w.got, w.want)
	}
	if w.s.Pending() != len(w.live) {
		w.fail("after %s: Pending = %d, want %d", op, w.s.Pending(), len(w.live))
	}
	for id, tm := range w.live {
		if !tm.Active() {
			w.fail("after %s: event %d pending but its timer inactive", op, id)
		}
	}
}

// churn drives a scheduler and the reference heap in lockstep through
// an op sequence drawn from src: At and AtOrigin at boundary delays,
// cancels (and re-arms) of live timers, cancels of any handle issued —
// fired, cancelled or stale — Step, RunUntil/RunBefore to deadlines
// mostly between events, Reset, and a snapshot of the pending set
// restored into a fresh scheduler. After every op both must have fired
// the same events in the same order and hold the same number pending.
// Half the runs open with one event on the empty scheduler, mostly far
// ahead, so the cursor jumps ahead of the clock and the jump's undo is
// checked too.
func churn(tb testing.TB, name string, src source) {
	tb.Helper()
	w := &churnRun{
		tb: tb, name: name, src: src, s: &Scheduler{}, ref: &refHeap{},
		dead: map[int]bool{}, live: map[int]Timer{}, events: map[int]refEvent{},
	}
	if src.Uint64()%2 == 1 {
		if bernoulli(src, 0.8) {
			w.schedule(20+src.Float64()*40, false)
		} else {
			w.schedule(boundaryDelay(src), false)
		}
	}
	ops := int(src.Uint64()%300) + 20
	for op := 0; op < ops; op++ {
		var name string
		switch k := src.Uint64() % 64; {
		case k < 10:
			name = "advance"
			w.advance()
		case k < 30:
			name = "At"
			w.schedule(boundaryDelay(src), false)
		case k < 34:
			name = "AtOrigin"
			w.schedule(boundaryDelay(src), true)
		case k < 46:
			name = "cancel"
			ids := make([]int, 0, len(w.live))
			for id := range w.live {
				ids = append(ids, id)
			}
			if len(ids) > 0 {
				slices.Sort(ids)
				id := ids[src.Uint64()%uint64(len(ids))]
				w.cancel(issued{id, w.live[id]})
				if bernoulli(src, 0.5) {
					w.schedule(boundaryDelay(src), false)
				}
			}
		case k < 49:
			name = "cancel any handle"
			if len(w.handles) > 0 {
				w.cancel(w.handles[src.Uint64()%uint64(len(w.handles))])
			}
		case k < 50:
			name = "Reset"
			w.reset()
		case k < 52:
			name = "snapshot and restore"
			w.restore()
		default:
			name = "Step"
			w.step()
		}
		w.check(name)
	}
	for w.s.Pending() > 0 {
		w.step()
		w.check("drain")
	}
	if _, ok := w.ref.popLive(w.dead); ok {
		w.fail("reference still has live events after the wheel drained")
	}
}

// churnTrial returns the RNG of one TestWheelVsReferenceHeapChurn
// trial.
func churnTrial(trial int) *recorder {
	return &recorder{r: rng.New(777 + uint64(trial))}
}

// TestWheelVsReferenceHeapChurn drives 300 random churn runs — with
// delays concentrated on tick edges, cascade-level spans, the overflow
// horizon and same-timestamp ties — through the wheel and the reference
// heap in lockstep (see churn).
func TestWheelVsReferenceHeapChurn(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		churn(t, fmt.Sprintf("trial %d", trial), churnTrial(trial))
	}
}

// FuzzScheduler decodes its input into a churn run (see churn and
// byteSource). The corpus is seeded with every tenth trial of
// TestWheelVsReferenceHeapChurn, recorded as the bytes that replay it.
func FuzzScheduler(f *testing.F) {
	for trial := 0; trial < 300; trial += 10 {
		rec := churnTrial(trial)
		churn(f, fmt.Sprintf("trial %d", trial), rec)
		f.Add(rec.out)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		churn(t, "input", &byteSource{b: data})
	})
}
