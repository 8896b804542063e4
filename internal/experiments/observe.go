package experiments

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/shard"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// ObserveOptions selects what the packet-level runs capture beyond
// their result aggregates. The zero value — everything off — is the
// default and keeps every run on the exact pre-observability
// instruction path: no registry is allocated, no tracer is attached
// (every Emit hook is a nil-sink branch), and time advances in the same
// two RunUntil calls it always did.
type ObserveOptions struct {
	// Metrics enables the per-run metrics registry: engine, per-link and
	// per-protocol-class aggregates sampled from counters the hot structs
	// already maintain, at the end of the measured window. Every metric
	// in the registry is executor-invariant, so the rendered table joins
	// the byte-identity gate across serial, -parallel and -shards K.
	Metrics bool
	// Epochs, when above 1, splits the measured window into this many
	// equal epochs and records per-epoch flow deltas and end-of-epoch
	// state. Sampling steps the run to each boundary with the engine's
	// ordinary RunUntil — no events scheduled, no randomness drawn — so
	// the simulation trajectory is bit-identical to an unsampled run.
	Epochs int
	// TraceCap, when positive, attaches a bounded event tracer of this
	// capacity to every scheduling domain, recording rare sim events
	// (loss events, no-feedback expiries, TCP timeouts, fault
	// transitions, shard handoffs) for Chrome trace_event output.
	TraceCap int
	// Live publishes each active sharded cluster's per-shard snapshots
	// (clock, window, barrier waits, handoffs) on the process-wide
	// live-introspection surface (obs.PublishLive) while runs execute —
	// the expvar endpoint the CLI serves with -expvar. Snapshots are
	// wall-clock flavored and never reach the deterministic output path.
	Live bool
}

// Observe is the process-wide observability selection, set by the CLI
// before scenarios run (the same pattern as LeakCheck). Runs read it at
// their start; changing it mid-batch is a race, so set it once.
var Observe ObserveOptions

func (o ObserveOptions) enabled() bool {
	return o.Metrics || o.Epochs > 1 || o.TraceCap > 0
}

// RunObs is one run's observability capture, carried on the run's
// result struct. All fields are freshly allocated — nothing aliases the
// pooled arena or cluster the run executed in.
type RunObs struct {
	// Metrics is the run's registry (nil unless Observe.Metrics).
	Metrics *obs.Registry
	// Epochs is the run's epoch log (nil unless Observe.Epochs > 1).
	Epochs *obs.EpochLog
	// Events is the run's merged, time-ordered trace (nil unless
	// Observe.TraceCap > 0); Dropped counts ring-overwritten events.
	Events  []obs.Event
	Dropped int64
}

// obsCarrier is how result structs surface their capture to the
// scenario layer without the fold signatures changing.
type obsCarrier interface{ runObs() *RunObs }

func (r SimResult) runObs() *RunObs     { return r.Obs }
func (r TopoSimResult) runObs() *RunObs { return r.Obs }
func (r RevSimResult) runObs() *RunObs  { return r.Obs }

// obsRun drives one run's capture. A nil *obsRun (observability off) is
// a valid receiver for every method, so call sites stay branch-free.
type obsRun struct {
	eng    *shard.Cluster
	epochs int

	log  *obs.EpochLog
	prev obs.Epoch
	// uhw and headroom are the boundary-aligned Unbounded queue samples
	// (satellite of the checkpoint work): at each epoch boundary, the
	// deepest high-water mark over the run's Unbounded queues and the
	// tightest remaining headroom to the hard occupancy cap. Empty when
	// the run has no Unbounded queues or metrics are off.
	uhw      []float64
	headroom []float64
}

// newObsRun returns the collector for one run on the cluster, or nil
// when Observe is entirely off. It samples link counters and the
// executor-invariant population counters (events fired, pending events,
// outstanding packets), all summed over shards, and collects the
// per-domain tracers. forceEpochs is the run's own epoch-log floor: churn
// scenarios set it so their folds get per-epoch deltas even on a plain
// CLI run (the forced log rides the result struct only — TSV epoch
// blocks stay gated on the user's Observe selection).
func newObsRun(eng *shard.Cluster, forceEpochs int) *obsRun {
	epochs := Observe.Epochs
	if forceEpochs > epochs {
		epochs = forceEpochs
	}
	if !Observe.enabled() && epochs <= 1 {
		return nil
	}
	o := &obsRun{eng: eng, epochs: epochs}
	if o.epochs > 1 {
		o.log = &obs.EpochLog{}
	}
	return o
}

// totals samples the engine's cumulative counters into an Epoch-shaped
// accumulator: flow counters summed over links, populations at the
// instant of the call.
func (o *obsRun) totals() obs.Epoch {
	var cum obs.Epoch
	cum.Fired = o.eng.Fired()
	for id := 0; id < o.eng.Links(); id++ {
		l := o.eng.Link(topology.LinkID(id))
		drops, early, _ := netsim.QueueStats(l.Queue())
		cum.Enqueued += l.Accepted()
		cum.Forwarded += l.Forwarded()
		cum.Bytes += l.BytesForwarded()
		cum.QueueDrops += drops
		cum.EarlyDrops += early
		cum.FaultDrops += l.FaultDrops
		cum.QueueLen += l.Queue().Len()
	}
	cum.Pending = o.eng.Pending()
	cum.Outstanding = o.eng.Outstanding()
	return cum
}

// begin fixes the epoch baseline at the end of warmup. Call it once,
// after the stats reset, before the first measured step.
func (o *obsRun) begin() {
	if o == nil || o.epochs <= 1 {
		return
	}
	o.prev = o.totals()
}

// boundary closes epoch i, spanning [start, end], at the current
// (phase-aligned) instant: the window's flow deltas against the
// previous boundary's totals plus end-of-window state, and the
// boundary-aligned Unbounded queue samples.
func (o *obsRun) boundary(i int, start, end float64) {
	if o == nil || o.epochs <= 1 {
		return
	}
	cur := o.totals()
	o.log.Add(obs.Epoch{
		Index: i, Start: start, End: end,
		Fired:       cur.Fired - o.prev.Fired,
		Enqueued:    cur.Enqueued - o.prev.Enqueued,
		Forwarded:   cur.Forwarded - o.prev.Forwarded,
		Bytes:       cur.Bytes - o.prev.Bytes,
		QueueDrops:  cur.QueueDrops - o.prev.QueueDrops,
		EarlyDrops:  cur.EarlyDrops - o.prev.EarlyDrops,
		FaultDrops:  cur.FaultDrops - o.prev.FaultDrops,
		QueueLen:    cur.QueueLen,
		Pending:     cur.Pending,
		Outstanding: cur.Outstanding,
	})
	o.prev = cur
	if Observe.Metrics {
		o.sampleUnbounded()
	}
}

// sampleUnbounded records the deepest Unbounded high-water mark and the
// tightest hard-cap headroom over the run's links, one sample per call.
// Runs without Unbounded queues record nothing.
func (o *obsRun) sampleUnbounded() {
	hw, head, any := unboundedDepth(o.eng)
	if !any {
		return
	}
	o.uhw = append(o.uhw, float64(hw))
	o.headroom = append(o.headroom, float64(head))
}

// unboundedDepth scans the engine's links for Unbounded queues: the
// maximum high-water mark, the minimum remaining headroom against each
// queue's effective hard cap, and whether any such queue exists.
func unboundedDepth(eng *shard.Cluster) (hw, head int, any bool) {
	for id := 0; id < eng.Links(); id++ {
		u, ok := eng.Link(topology.LinkID(id)).Queue().(*netsim.Unbounded)
		if !ok {
			continue
		}
		cap := u.Cap
		if cap <= 0 {
			cap = netsim.DefaultUnboundedCap
		}
		if !any || u.HighWater > hw {
			hw = u.HighWater
		}
		if h := cap - u.HighWater; !any || h < head {
			head = h
		}
		any = true
	}
	return hw, head, any
}

// lossIntervalBounds buckets the loss-interval histograms in packet
// counts, one bucket per doubling — the scale the TFRC estimator's
// window arithmetic lives on.
var lossIntervalBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// collect builds the run's capture: the metrics registry from the
// engine totals and the protocol classes' measurement windows, the
// epoch log accumulated at the run's epoch boundaries, and the merged
// trace. Safe on a nil receiver (returns nil — observability off).
func (o *obsRun) collect(tf []tfrc.Stats, tc []tcp.Stats) *RunObs {
	if o == nil {
		return nil
	}
	res := &RunObs{Epochs: o.log}
	if Observe.Metrics {
		reg := obs.NewRegistry()
		cum := o.totals()
		reg.Counter("des.events_fired").Add(int64(cum.Fired))
		reg.Counter("des.pending_end").Add(int64(cum.Pending))
		reg.Counter("net.enqueued").Add(cum.Enqueued)
		reg.Counter("net.forwarded").Add(cum.Forwarded)
		reg.Counter("net.bytes_forwarded").Add(cum.Bytes)
		reg.Counter("net.queue_drops").Add(cum.QueueDrops)
		reg.Counter("net.early_drops").Add(cum.EarlyDrops)
		reg.Counter("net.fault_drops").Add(cum.FaultDrops)
		reg.Counter("net.outstanding_end").Add(cum.Outstanding)
		for id := 0; id < o.eng.Links(); id++ {
			l := o.eng.Link(topology.LinkID(id))
			drops, early, _ := netsim.QueueStats(l.Queue())
			pre := fmt.Sprintf("link%d.", id)
			reg.Counter(pre + "forwarded").Add(l.Forwarded())
			reg.Counter(pre + "queue_drops").Add(drops + early)
			reg.Counter(pre + "fault_drops").Add(l.FaultDrops)
		}
		// Unbounded depth gauges: the boundary-aligned samples when epoch
		// stepping collected them, else one end-of-run sample. Runs with
		// no Unbounded queues register neither gauge.
		if hw, head, any := unboundedDepth(o.eng); any {
			g := reg.Gauge("net.unbounded_highwater")
			h := reg.Gauge("net.unbounded_headroom")
			if len(o.uhw) > 0 {
				for i := range o.uhw {
					g.Observe(o.uhw[i])
					h.Observe(o.headroom[i])
				}
			} else {
				g.Observe(float64(hw))
				h.Observe(float64(head))
			}
		}
		obsClass(reg, "tfrc", len(tf), func(add func(string, int64), g func(string, float64), h *obs.Histogram) {
			for _, st := range tf {
				add("packets_sent", st.PacketsSent)
				add("loss_events", st.LossEvents)
				add("feedback_received", st.FeedbackReceived)
				add("nofeedback_halvings", st.NoFeedbackHalvings)
				g("throughput", st.Throughput)
				g("rtt", st.MeanRTT)
				for _, th := range st.LossIntervals {
					h.Observe(th)
				}
			}
		})
		obsClass(reg, "tcp", len(tc), func(add func(string, int64), g func(string, float64), h *obs.Histogram) {
			for _, st := range tc {
				add("packets_sent", st.PacketsSent)
				add("loss_events", st.LossEvents)
				add("acks_received", st.AcksReceived)
				g("throughput", st.Throughput)
				g("rtt", st.MeanRTT)
				for _, th := range st.LossIntervals {
					h.Observe(th)
				}
			}
		})
		res.Metrics = reg
	}
	if Observe.TraceCap > 0 {
		ts := o.eng.Tracers()
		res.Events = obs.MergeEvents(ts)
		for _, t := range ts {
			res.Dropped += t.Dropped()
		}
	}
	return res
}

// obsClass registers one protocol class's block of metrics under the
// given prefix, skipping empty classes so registries stay minimal and
// scenario-shaped.
func obsClass(reg *obs.Registry, prefix string, flows int,
	fill func(add func(string, int64), gauge func(string, float64), hist *obs.Histogram)) {
	if flows == 0 {
		return
	}
	reg.Counter(prefix + ".flows").Add(int64(flows))
	fill(
		func(name string, v int64) { reg.Counter(prefix + "." + name).Add(v) },
		func(name string, v float64) { reg.Gauge(prefix + "." + name).Observe(v) },
		reg.Histogram(prefix+".loss_interval", lossIntervalBounds),
	)
}

// ScenarioObs aggregates the per-job captures of one scenario run, in
// job order — the same order the fold consumes results — so the merged
// registry and the trace are deterministic under any executor schedule.
type ScenarioObs struct {
	// Metrics is the job registries folded in job order (nil when no job
	// carried one).
	Metrics *obs.Registry
	// Epochs concatenates the jobs' epoch logs in job order (nil when no
	// job carried one). Index restarts at 0 at each job boundary.
	Epochs *obs.EpochLog
	// Jobs holds each observed job's trace stream, labeled with the job
	// name and indexed by batch position for Chrome trace output.
	Jobs []obs.JobTrace
	// Dropped totals ring-overwritten trace events across jobs.
	Dropped int64
}

// collectScenarioObs folds the results' captures. Results that carry no
// capture (Monte Carlo tables, analytic figures, failed hardened-mode
// slots) are skipped.
func collectScenarioObs(jobs []runner.Job, results []any) *ScenarioObs {
	if !Observe.enabled() {
		return nil
	}
	so := &ScenarioObs{}
	for i, r := range results {
		c, ok := r.(obsCarrier)
		if !ok {
			continue
		}
		ro := c.runObs()
		if ro == nil {
			continue
		}
		if ro.Metrics != nil {
			if so.Metrics == nil {
				so.Metrics = obs.NewRegistry()
			}
			so.Metrics.Merge(ro.Metrics)
		}
		if ro.Epochs != nil {
			if so.Epochs == nil {
				so.Epochs = &obs.EpochLog{}
			}
			so.Epochs.Merge(ro.Epochs)
		}
		if len(ro.Events) > 0 || ro.Dropped > 0 {
			name := ""
			if i < len(jobs) {
				name = jobs[i].Name
			}
			so.Jobs = append(so.Jobs, obs.JobTrace{
				Name: name, Pid: i, Events: ro.Events, Dropped: ro.Dropped,
			})
			so.Dropped += ro.Dropped
		}
	}
	return so
}
