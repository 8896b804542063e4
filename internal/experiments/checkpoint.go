package experiments

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"

	"repro/internal/arrivals"
	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/tcp"
	"repro/internal/tfrc"
)

// CheckpointOptions is the process-wide checkpoint selection, set by
// the CLI before scenarios run (the same pattern as Observe). Every
// field off keeps runs on the exact pre-checkpoint instruction path:
// no capture, no extra RunUntil stepping beyond the epoch boundaries
// the run already had.
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

// configDigest folds every field of the run's configuration that shapes
// its trajectory — scenario label, seed, topology, flow population,
// fault plan, churn classes, executor shape and epoch structure — into
// one 64-bit value. A snapshot restores only into a run whose digest
// matches exactly; anything else is a different simulation and resuming
// into it would silently corrupt output.
func configDigest(cfg *TopoSimConfig, shards, epochs int) uint64 {
	var d checkpoint.Digest
	d.Str("toposim")
	d.Str(cfg.Label)
	d.Int(cfg.Hops)
	d.F64(cfg.Capacity)
	d.Int(cfg.Buffer)
	d.F64(cfg.HopDelay)
	d.F64(cfg.AccessDelay)
	d.F64(cfg.RevDelay)
	d.Int(cfg.NTFRC)
	d.Int(cfg.NTCP)
	d.Int(cfg.CrossPerHop)
	d.F64(cfg.CrossRevDelay)
	d.F64(cfg.RTTSpread)
	d.Int(cfg.L)
	d.Bool(cfg.Comprehensive)
	d.F64(cfg.Duration)
	d.F64(cfg.Warmup)
	d.U64(cfg.Seed)
	d.F64(cfg.RevJitter)
	d.Bool(cfg.MirrorRev)
	d.Int(shards)
	d.Int(epochs)
	d.Bool(cfg.Faults != nil)
	if p := cfg.Faults; p != nil {
		d.U64(p.Seed)
		d.Int(len(p.Events))
		for _, ev := range p.Events {
			d.F64(ev.At)
			d.Int(int(ev.Link))
			d.Int(int(ev.Op))
			d.F64(ev.Rate)
			d.Int(int(ev.Policy))
		}
		d.Int(len(p.Losses))
		for _, ge := range p.Losses {
			d.Int(int(ge.Link))
			d.F64(ge.MeanGood)
			d.F64(ge.MeanBad)
			d.F64(ge.LossGood)
			d.F64(ge.LossBad)
		}
	}
	d.Bool(cfg.Watch != nil)
	if wt := cfg.Watch; wt != nil {
		d.F64(wt.Down)
		d.F64(wt.Up)
		d.F64(wt.Frac)
		d.F64(wt.Interval)
	}
	d.Int(len(cfg.Churn))
	for _, sp := range cfg.Churn {
		d.Str(sp.Name)
		d.Int(int(sp.Proto))
		d.Int(int(sp.Gap.Kind))
		d.F64(sp.Gap.Rate)
		d.F64(sp.Gap.Shape)
		d.F64(sp.Gap.Scale)
		d.Int(int(sp.Size.Kind))
		d.I64(sp.Size.Packets)
		d.F64(sp.Size.Shape)
		d.F64(sp.Size.MinPackets)
		d.I64(sp.Size.CapPackets)
		d.F64(sp.Start)
		d.F64(sp.Stop)
		d.Int(sp.MaxArrivals)
		d.U64(sp.Seed)
		d.Bool(sp.Reverse)
		d.F64(sp.CBRRate)
	}
	return d.Sum()
}

// instant is one stop of the measured window's stepping sequence: an
// epoch boundary, a checkpoint time, or both when they coincide. The
// sequence is pure float arithmetic from the config, so an interrupted
// run and its resumed continuation step through identical instants.
type instant struct {
	t     float64
	epoch int     // epoch index ending at t, -1 when not a boundary
	start float64 // the ending epoch's window start (epoch >= 0 only)
	save  bool    // write a snapshot at t
}

// topoCkpt drives one checkpoint-aware (or resuming) multi-hop run: it
// owns references to every stateful component the rebuild produced, in
// a fixed order, and sequences their Save/Restore hooks around the
// cluster's Run stepping — the same sections at any shard count.
type topoCkpt struct {
	cfg      *TopoSimConfig
	env      *shard.Cluster
	ob       *obsRun
	armed    *fault.Armed
	churn    *arrivals.Engine
	watchers []*rateWatch
	tfrcSnd  []*tfrc.Sender
	tfrcRcv  []*tfrc.Receiver
	tcpSnd   []*tcp.Sender
	tcpRcv   []*tcp.Receiver
	crossSnd []*tcp.Sender
	crossRcv []*tcp.Receiver

	end    float64
	digest uint64
	saving bool
	resume string // resume directory, "" when not resuming
}

// run executes the measured portion of the simulation: warmup, stats
// reset, then the merged instant sequence, resuming from a snapshot
// when one is available. It replaces the plain warmup/runMeasured tail
// of RunTopoSim only when checkpointing or resuming is requested.
func (d *topoCkpt) run() {
	from := -1.0
	if d.resume != "" {
		if t, ok := d.tryResume(); ok {
			from = t
		}
	}
	if from < 0 {
		d.env.Run(d.cfg.Warmup)
		d.resetAll()
		d.ob.begin()
		d.saveAt(d.cfg.Warmup)
		from = d.cfg.Warmup
	}
	for _, in := range d.instants() {
		if in.t <= from {
			continue
		}
		d.env.Run(in.t)
		if in.epoch >= 0 {
			d.ob.boundary(in.epoch, in.start, in.t)
		}
		if in.save {
			d.saveAt(in.t)
		}
	}
}

// resetAll restarts every static sender's measurement window (never on
// a resumed run, whose snapshot postdates the reset); churn flows
// attach after warmup and measure from their own start.
func (d *topoCkpt) resetAll() {
	resetStats(d.tfrcSnd)
	resetStats(d.tcpSnd)
	resetStats(d.crossSnd)
}

// instants returns the merged, sorted stepping sequence of the measured
// window: every epoch boundary and every checkpoint time, coinciding
// stops folded into one.
func (d *topoCkpt) instants() []instant {
	var list []instant
	from, to := d.cfg.Warmup, d.end
	if d.ob != nil && d.ob.epochs > 1 {
		n := d.ob.epochs
		w := (to - from) / float64(n)
		start := from
		for i := 0; i < n; i++ {
			end := from + w*float64(i+1)
			if i == n-1 {
				end = to
			}
			list = append(list, instant{t: end, epoch: i, start: start})
			start = end
		}
	}
	if d.saving {
		for k := 1; ; k++ {
			t := from + float64(k)*Checkpoint.Every
			if t >= to {
				break
			}
			list = append(list, instant{t: t, epoch: -1, save: true})
		}
	}
	sort.SliceStable(list, func(i, j int) bool { return list[i].t < list[j].t })
	out := list[:0]
	for _, in := range list {
		if n := len(out); n > 0 && out[n-1].t == in.t {
			if in.epoch >= 0 {
				out[n-1].epoch = in.epoch
				out[n-1].start = in.start
			}
			out[n-1].save = out[n-1].save || in.save
			continue
		}
		out = append(out, in)
	}
	if n := len(out); n == 0 || out[n-1].t < to {
		out = append(out, instant{t: to, epoch: -1})
	}
	return out
}

// saveAt snapshots the full simulation state at the current (phase-
// aligned) instant, streaming it into the job's snapshot file, which it
// replaces atomically.
func (d *topoCkpt) saveAt(t float64) {
	if !d.saving {
		return
	}
	path := checkpoint.PathFor(Checkpoint.Dir, d.cfg.Label)
	if err := checkpoint.StreamFile(path, d.digest, d.save); err != nil {
		panic(fmt.Sprintf("experiments: writing checkpoint %s at t=%g: %v", path, t, err))
	}
}

// tryResume loads the job's snapshot from the resume directory. A
// missing file degrades to a from-scratch run (false); a present but
// corrupt or mismatched file is fatal — resuming it would corrupt
// output.
func (d *topoCkpt) tryResume() (float64, bool) {
	path := checkpoint.PathFor(d.resume, d.cfg.Label)
	digest, payload, err := checkpoint.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: resume: %v", err))
	}
	if digest != d.digest {
		panic(fmt.Sprintf(
			"experiments: resume %s: config digest mismatch: snapshot was written under config %016x, this run is config %016x; refusing to resume a different simulation",
			path, digest, d.digest))
	}
	r := checkpoint.NewReader(payload)
	now := d.restore(r)
	if err := r.Err(); err != nil {
		panic(fmt.Sprintf("experiments: resume %s: %v", path, err))
	}
	return now, true
}

// save writes the full simulation state in the fixed section order the
// restore path consumes: scheduler clocks, link contents, static
// protocol endpoints, recovery watchers, the armed fault plan, the
// churn engine, the per-flow overlay, in-flight hand-offs (pure-delay
// deliveries, then cross-shard handoffs), the epoch log, and — last —
// the freelist ledgers.
func (d *topoCkpt) save(w *checkpoint.Writer) {
	scheds := d.schedulers()
	w.Int(len(scheds))
	for _, s := range scheds {
		w.F64(s.Now())
		w.U64(s.Seq())
		w.U64(s.Fired())
		w.U64(s.Cascaded())
		w.Int(s.Pending())
	}
	d.env.SaveLinks(w)
	for i, snd := range d.tfrcSnd {
		snd.Save(w)
		d.tfrcRcv[i].Save(w)
	}
	for i, snd := range d.tcpSnd {
		snd.Save(w)
		d.tcpRcv[i].Save(w)
	}
	for i, snd := range d.crossSnd {
		snd.Save(w)
		d.crossRcv[i].Save(w)
	}
	w.Int(len(d.watchers))
	for _, rw := range d.watchers {
		rw.save(w)
	}
	d.armed.Save(w)
	w.Bool(d.churn != nil)
	if d.churn != nil {
		d.churn.Save(w)
	}
	d.env.SaveFlows(w)
	d.env.SaveDeliveries(w)
	d.env.SaveHandoffs(w)
	w.Bool(d.ob != nil)
	if d.ob != nil {
		d.ob.save(w)
	}
	d.env.SaveLedger(w)
}

// restore overlays a snapshot onto the freshly rebuilt simulation and
// returns the restored simulation time. The section order matches save;
// the sequencing constraints are structural: schedulers reset first (so
// every stale rebuild-time timer dies), protocol and churn restores
// re-arm their timers and re-attach churn flows before the flow overlay
// validates the attached population, and the ledgers restore last so
// the leak invariant holds the moment restore returns.
func (d *topoCkpt) restore(r *checkpoint.Reader) float64 {
	scheds := d.schedulers()
	if n := r.Count(); n != len(scheds) {
		r.Fail("snapshot has %d schedulers, this executor has %d", n, len(scheds))
		return 0
	}
	now := 0.0
	pending := make([]int, len(scheds))
	for i, s := range scheds {
		t := r.F64()
		seq := r.U64()
		fired := r.U64()
		cascaded := r.U64()
		pending[i] = r.Int()
		if r.Err() != nil {
			return 0
		}
		if t < d.cfg.Warmup || t > d.end {
			r.Fail("snapshot clock %g outside this run's measured window [%g, %g]",
				t, d.cfg.Warmup, d.end)
			return 0
		}
		s.Reset()
		s.RestoreClock(t, seq, fired, cascaded)
		now = t
	}
	d.env.RestoreLinks(r)
	for i, snd := range d.tfrcSnd {
		if r.Err() != nil {
			return 0
		}
		snd.Restore(r)
		d.tfrcRcv[i].Restore(r)
	}
	for i, snd := range d.tcpSnd {
		if r.Err() != nil {
			return 0
		}
		snd.Restore(r)
		d.tcpRcv[i].Restore(r)
	}
	for i, snd := range d.crossSnd {
		if r.Err() != nil {
			return 0
		}
		snd.Restore(r)
		d.crossRcv[i].Restore(r)
	}
	if n := r.Count(); n != len(d.watchers) {
		r.Fail("snapshot has %d recovery watchers, rebuilt run has %d", n, len(d.watchers))
		return 0
	}
	for _, rw := range d.watchers {
		rw.restore(r)
	}
	d.armed.Restore(r)
	hadChurn := r.Bool()
	if hadChurn != (d.churn != nil) {
		r.Fail("snapshot and rebuilt run disagree on churn presence")
		return 0
	}
	if d.churn != nil {
		d.churn.Restore(r)
	}
	d.env.RestoreFlows(r)
	d.env.RestoreDeliveries(r)
	d.env.RestoreHandoffs(r)
	hadObs := r.Bool()
	if hadObs != (d.ob != nil) {
		r.Fail("snapshot and rebuilt run disagree on observability capture")
		return 0
	}
	if d.ob != nil {
		d.ob.restore(r)
	}
	d.env.RestoreLedger(r)
	if r.Err() != nil {
		return 0
	}
	for i, s := range scheds {
		if got := s.Pending(); got != pending[i] {
			r.Fail("scheduler %d restored %d pending events, snapshot recorded %d",
				i, got, pending[i])
			return 0
		}
	}
	return now
}

// schedulers returns every shard's scheduler in shard order.
func (d *topoCkpt) schedulers() []*des.Scheduler {
	scheds := make([]*des.Scheduler, d.env.Shards())
	for i := range scheds {
		scheds[i] = d.env.Shard(i).Sched()
	}
	return scheds
}

// --- rateWatch checkpoint hooks ---

func (rw *rateWatch) save(w *checkpoint.Writer) {
	w.F64(rw.preRate)
	w.F64(rw.recoveredAt)
	w.Timer(rw.tm.State())
}

func (rw *rateWatch) restore(r *checkpoint.Reader) {
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

// save writes the capture's accumulated state: the previous-boundary
// totals, the epochs logged so far, and the boundary-aligned Unbounded
// queue samples.
func (o *obsRun) save(w *checkpoint.Writer) {
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

// restore overlays the capture state saved by save.
func (o *obsRun) restore(r *checkpoint.Reader) {
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
