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

// stateful is a simulation component with snapshot state: it lists its
// fields once, in a fixed order, in one walk over a checkpoint.Codec —
// a save writes them, and a restore onto the freshly rebuilt twin reads
// them back, re-arming its timers under their saved identities.
type stateful interface {
	Checkpoint(c checkpoint.Codec)
}

// source is a traffic source the build starts at a seed-drawn instant —
// the Poisson probe or an on/off cross-traffic source — together with
// that start timer. The build, not the source, schedules the start, so
// the timer is walked next to the source's own state: a snapshot taken
// before the start fires restores it pending.
type source struct {
	stateful
	sched *des.Scheduler
	start des.Event
	tm    des.Timer
}

func (s *source) Checkpoint(c checkpoint.Codec) {
	s.stateful.Checkpoint(c)
	s.sched.CheckpointTimer(c, &s.tm, s.start)
}

// saveAt snapshots the full simulation state at the current (phase-
// aligned) instant, streaming it into the job's snapshot file, which it
// replaces atomically.
func (r *run) saveAt(t float64) {
	if !r.saving {
		return
	}
	path := checkpoint.PathFor(Checkpoint.Dir, r.sp.label)
	err := checkpoint.StreamFile(path, r.digest, func(w *checkpoint.Writer) { r.checkpoint(w.Codec()) })
	if err != nil {
		panic(fmt.Sprintf("experiments: writing checkpoint %s at t=%g: %v", path, t, err))
	}
}

// tryResume loads the job's snapshot from the resume directory and
// returns the restored simulation time. A missing file degrades to a
// from-scratch run (false); a present file that cannot be read — a
// codec version or config digest other than this run's, a spoiled
// envelope, a failed restore check — is an error naming the file and
// the check: resuming it would corrupt output.
func (r *run) tryResume() (float64, bool, error) {
	path := checkpoint.PathFor(r.sp.resume, r.sp.label)
	digest, payload, err := checkpoint.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("experiments: resume: %w", err)
	}
	if digest != r.digest {
		return 0, false, fmt.Errorf(
			"experiments: resume %s: config digest mismatch: snapshot was written under config %016x, this run is config %016x; refusing to resume a different simulation",
			path, digest, r.digest)
	}
	rd := checkpoint.NewReader(payload)
	r.checkpoint(rd.Codec())
	if err := rd.Err(); err != nil {
		return 0, false, fmt.Errorf("experiments: resume %s: %w", path, err)
	}
	return r.env.Shard(r.env.Shards() - 1).Sched().Now(), true, nil
}

// checkpoint walks the full simulation state through c in a fixed
// section order: scheduler clocks, link contents, the stateful
// components in construction order, the per-flow overlay, the pending
// deliveries (cross-shard arrivals included), the handoff counters,
// and — last — the freelist ledgers.
//
// A restore's sequencing constraints are structural: schedulers reset
// first (so every stale rebuild-time timer dies), the components re-arm
// their timers and the churn engine re-attaches its flows before the
// flow overlay validates the attached population, and the ledgers
// restore last so the leak invariant holds the moment the walk returns.
// Only a restore checks each clock against the measured window and the
// pending counts against the snapshot's.
func (r *run) checkpoint(c checkpoint.Codec) {
	k := r.env.Shards()
	if !c.Same(k, "scheduler count") {
		return
	}
	var pending []int
	if !c.Saving() {
		pending = make([]int, k)
	}
	for i := 0; i < k; i++ {
		s := r.env.Shard(i).Sched()
		now, seq, fired, cascaded, n := s.Now(), s.Seq(), s.Fired(), s.Cascaded(), s.Pending()
		c.F64(&now)
		c.U64(&seq)
		c.U64(&fired)
		c.U64(&cascaded)
		c.Int(&n)
		if c.Saving() {
			continue
		}
		if c.Err() != nil {
			return
		}
		if now < r.sp.warmup || now > r.end {
			c.Fail("snapshot clock %g outside this run's measured window [%g, %g]", now, r.sp.warmup, r.end)
			return
		}
		s.Reset()
		s.RestoreClock(now, seq, fired, cascaded)
		pending[i] = n
	}
	r.env.CheckpointLinks(c)
	if !c.Same(len(r.parts), "stateful component count") {
		return
	}
	for _, p := range r.parts {
		if c.Err() != nil {
			return
		}
		p.Checkpoint(c)
	}
	r.env.CheckpointFlows(c)
	r.env.CheckpointDeliveries(c)
	r.env.CheckpointHandoffs(c)
	r.env.CheckpointLedger(c)
	if c.Err() != nil {
		return
	}
	for i, want := range pending {
		if got := r.env.Shard(i).Sched().Pending(); got != want {
			c.Fail("scheduler %d restored %d pending events, snapshot recorded %d", i, got, want)
			return
		}
	}
}

func (rw *rateWatch) Checkpoint(c checkpoint.Codec) {
	c.F64(&rw.preRate)
	c.F64(&rw.recoveredAt)
	rw.sched.CheckpointTimer(c, &rw.tm, rw.fn)
}

// checkpointEpoch walks one epoch record through c.
func checkpointEpoch(c checkpoint.Codec, e *obs.Epoch) {
	c.Int(&e.Index)
	c.F64(&e.Start)
	c.F64(&e.End)
	c.U64(&e.Fired)
	c.I64(&e.Enqueued)
	c.I64(&e.Forwarded)
	c.I64(&e.Bytes)
	c.I64(&e.QueueDrops)
	c.I64(&e.EarlyDrops)
	c.I64(&e.FaultDrops)
	c.Int(&e.QueueLen)
	c.Int(&e.Pending)
	c.I64(&e.Outstanding)
}

// Checkpoint walks the capture's accumulated state through c: the
// previous-boundary totals, the epochs logged so far, and the
// boundary-aligned Unbounded queue samples.
func (o *obsRun) Checkpoint(c checkpoint.Codec) {
	checkpointEpoch(c, &o.prev)
	var epochs []obs.Epoch
	if o.log != nil {
		epochs = o.log.Epochs
	}
	n := c.Len(len(epochs))
	if o.epochs > 1 && n > o.epochs {
		c.Fail("snapshot logged %d epochs, this run has %d", n, o.epochs)
		return
	}
	epochs = checkpoint.Resize(epochs, n)
	for i := range epochs {
		checkpointEpoch(c, &epochs[i])
	}
	if o.log != nil {
		o.log.Epochs = epochs
	}
	m := c.Len(len(o.uhw))
	o.uhw, o.headroom = checkpoint.Resize(o.uhw, m), checkpoint.Resize(o.headroom, m)
	for i := range o.uhw {
		c.F64(&o.uhw[i])
		c.F64(&o.headroom[i])
	}
}
