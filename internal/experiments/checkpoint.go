package experiments

import (
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/obs"
)

// CheckpointOptions is the process-wide checkpoint selection, set by
// the CLI before scenarios run (the same pattern as Observe). Every
// field off keeps runs on the exact pre-checkpoint instruction path:
// no capture, no extra RunUntil stepping beyond the epoch boundaries
// the run already had. The options apply to every packet-level run
// with a label — every packet-level scenario job; Monte Carlo and
// analytic scenarios have nothing to snapshot and ignore them.
type CheckpointOptions struct {
	// Every is the snapshot cadence in simulated seconds: a snapshot is
	// written at the end of warmup and then every Every seconds of the
	// measured window. <= 0 disables snapshotting.
	Every float64
	// Dir is the directory snapshots are written into (one file per
	// labeled job, atomically replaced at each instant).
	Dir string
	// Resume, when set, asks every labeled run to continue from the
	// snapshot found in this directory. A missing snapshot degrades to a
	// from-scratch run; a snapshot whose config digest does not match
	// the run fails loudly rather than corrupting output.
	Resume string
}

// Checkpoint is the process-wide checkpoint configuration.
var Checkpoint CheckpointOptions

// stateful is a simulation component with snapshot state: it writes its
// state in a fixed field order and reads the same order back onto its
// freshly rebuilt twin, re-arming its timers under their saved
// identities.
type stateful interface {
	Save(w *checkpoint.Writer)
	Restore(r *checkpoint.Reader)
}

// source is a traffic source the build starts at a seed-drawn instant —
// the Poisson probe or an on/off cross-traffic source — together with
// that start timer. The build, not the source, schedules the start, so
// the timer is saved next to the source's own state: a snapshot taken
// before the start fires restores it pending.
type source struct {
	stateful
	sched *des.Scheduler
	start des.Event
	tm    des.Timer
}

func (s *source) Save(w *checkpoint.Writer) {
	s.stateful.Save(w)
	w.Timer(s.tm.State())
}

func (s *source) Restore(r *checkpoint.Reader) {
	s.stateful.Restore(r)
	s.tm = s.sched.RestoreTimer(r.Timer(), s.start)
}

// saveAt snapshots the full simulation state at the current (phase-
// aligned) instant, streaming it into the job's snapshot file, which it
// replaces atomically.
func (r *run) saveAt(t float64) {
	if !r.saving {
		return
	}
	path := checkpoint.PathFor(Checkpoint.Dir, r.sp.label)
	if err := checkpoint.StreamFile(path, r.digest, r.save); err != nil {
		panic(fmt.Sprintf("experiments: writing checkpoint %s at t=%g: %v", path, t, err))
	}
}

// tryResume loads the job's snapshot from the resume directory. A
// missing file degrades to a from-scratch run (false); a present but
// corrupt or mismatched file is fatal — resuming it would corrupt
// output.
func (r *run) tryResume() (float64, bool) {
	path := checkpoint.PathFor(r.sp.resume, r.sp.label)
	digest, payload, err := checkpoint.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: resume: %v", err))
	}
	if digest != r.digest {
		panic(fmt.Sprintf(
			"experiments: resume %s: config digest mismatch: snapshot was written under config %016x, this run is config %016x; refusing to resume a different simulation",
			path, digest, r.digest))
	}
	rd := checkpoint.NewReader(payload)
	now := r.restore(rd)
	if err := rd.Err(); err != nil {
		panic(fmt.Sprintf("experiments: resume %s: %v", path, err))
	}
	return now, true
}

// save writes the full simulation state in the fixed section order the
// restore path consumes: scheduler clocks, link contents, the stateful
// components in construction order, the per-flow overlay, in-flight
// hand-offs (pure-delay deliveries, then cross-shard handoffs), and —
// last — the freelist ledgers.
func (r *run) save(w *checkpoint.Writer) {
	w.Int(r.env.Shards())
	for i := 0; i < r.env.Shards(); i++ {
		s := r.env.Shard(i).Sched()
		w.F64(s.Now())
		w.U64(s.Seq())
		w.U64(s.Fired())
		w.U64(s.Cascaded())
		w.Int(s.Pending())
	}
	r.env.SaveLinks(w)
	w.Int(len(r.parts))
	for _, p := range r.parts {
		p.Save(w)
	}
	r.env.SaveFlows(w)
	r.env.SaveDeliveries(w)
	r.env.SaveHandoffs(w)
	r.env.SaveLedger(w)
}

// restore overlays a snapshot onto the freshly rebuilt simulation and
// returns the restored simulation time. The section order matches save;
// the sequencing constraints are structural: schedulers reset first (so
// every stale rebuild-time timer dies), the components re-arm their
// timers and the churn engine re-attaches its flows before the flow
// overlay validates the attached population, and the ledgers restore
// last so the leak invariant holds the moment restore returns.
func (r *run) restore(rd *checkpoint.Reader) float64 {
	k := r.env.Shards()
	if n := rd.Count(); n != k {
		rd.Fail("snapshot has %d schedulers, this executor has %d", n, k)
		return 0
	}
	now := 0.0
	pending := make([]int, k)
	for i := 0; i < k; i++ {
		t := rd.F64()
		seq := rd.U64()
		fired := rd.U64()
		cascaded := rd.U64()
		pending[i] = rd.Int()
		if rd.Err() != nil {
			return 0
		}
		if t < r.sp.warmup || t > r.end {
			rd.Fail("snapshot clock %g outside this run's measured window [%g, %g]",
				t, r.sp.warmup, r.end)
			return 0
		}
		s := r.env.Shard(i).Sched()
		s.Reset()
		s.RestoreClock(t, seq, fired, cascaded)
		now = t
	}
	r.env.RestoreLinks(rd)
	if n := rd.Count(); n != len(r.parts) {
		rd.Fail("snapshot has %d stateful components, the rebuilt run has %d", n, len(r.parts))
		return 0
	}
	for _, p := range r.parts {
		if rd.Err() != nil {
			return 0
		}
		p.Restore(rd)
	}
	r.env.RestoreFlows(rd)
	r.env.RestoreDeliveries(rd)
	r.env.RestoreHandoffs(rd)
	r.env.RestoreLedger(rd)
	if rd.Err() != nil {
		return 0
	}
	for i := 0; i < k; i++ {
		if got := r.env.Shard(i).Sched().Pending(); got != pending[i] {
			rd.Fail("scheduler %d restored %d pending events, snapshot recorded %d",
				i, got, pending[i])
			return 0
		}
	}
	return now
}

// --- rateWatch checkpoint hooks ---

func (rw *rateWatch) Save(w *checkpoint.Writer) {
	w.F64(rw.preRate)
	w.F64(rw.recoveredAt)
	w.Timer(rw.tm.State())
}

func (rw *rateWatch) Restore(r *checkpoint.Reader) {
	rw.preRate = r.F64()
	rw.recoveredAt = r.F64()
	rw.tm = rw.sched.RestoreTimer(r.Timer(), rw.fn)
}

// --- obsRun checkpoint hooks ---

func saveEpoch(w *checkpoint.Writer, e obs.Epoch) {
	w.Int(e.Index)
	w.F64(e.Start)
	w.F64(e.End)
	w.U64(e.Fired)
	w.I64(e.Enqueued)
	w.I64(e.Forwarded)
	w.I64(e.Bytes)
	w.I64(e.QueueDrops)
	w.I64(e.EarlyDrops)
	w.I64(e.FaultDrops)
	w.Int(e.QueueLen)
	w.Int(e.Pending)
	w.I64(e.Outstanding)
}

func restoreEpoch(r *checkpoint.Reader) obs.Epoch {
	var e obs.Epoch
	e.Index = r.Int()
	e.Start = r.F64()
	e.End = r.F64()
	e.Fired = r.U64()
	e.Enqueued = r.I64()
	e.Forwarded = r.I64()
	e.Bytes = r.I64()
	e.QueueDrops = r.I64()
	e.EarlyDrops = r.I64()
	e.FaultDrops = r.I64()
	e.QueueLen = r.Int()
	e.Pending = r.Int()
	e.Outstanding = r.I64()
	return e
}

// Save writes the capture's accumulated state: the previous-boundary
// totals, the epochs logged so far, and the boundary-aligned Unbounded
// queue samples.
func (o *obsRun) Save(w *checkpoint.Writer) {
	saveEpoch(w, o.prev)
	n := 0
	if o.log != nil {
		n = len(o.log.Epochs)
	}
	w.Int(n)
	for i := 0; i < n; i++ {
		saveEpoch(w, o.log.Epochs[i])
	}
	w.Int(len(o.uhw))
	for i := range o.uhw {
		w.F64(o.uhw[i])
		w.F64(o.headroom[i])
	}
}

// Restore overlays the capture state saved by Save.
func (o *obsRun) Restore(r *checkpoint.Reader) {
	o.prev = restoreEpoch(r)
	n := r.Count()
	if o.epochs > 1 && n > o.epochs {
		r.Fail("snapshot logged %d epochs, this run has %d", n, o.epochs)
		return
	}
	if o.log != nil {
		o.log.Epochs = o.log.Epochs[:0]
	}
	for i := 0; i < n; i++ {
		if r.Err() != nil {
			return
		}
		e := restoreEpoch(r)
		if o.log != nil {
			o.log.Epochs = append(o.log.Epochs, e)
		}
	}
	m := r.Count()
	o.uhw, o.headroom = o.uhw[:0], o.headroom[:0]
	for i := 0; i < m; i++ {
		o.uhw = append(o.uhw, r.F64())
		o.headroom = append(o.headroom, r.F64())
	}
}
