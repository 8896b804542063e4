package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is set
// for end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are what a user of the simulator sees, measured with
// tracing off. Failed jobs are counted in the result line's
// attempted/failed pair; pass_rate carries the same share as a metric
// that never reads 0.
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"pass_rate", "ratio", "higher", 0.01},
}

// perLayerMetrics are the layers' own figures. Times come from the
// traced pass, counts from public counters.
var perLayerMetrics = []metricDef{
	{"des.events", "count", "lower", 0},
	{"des.self_ns_per_event", "ns/event", "lower", 0},
	{"des.cascades_per_event", "cascades/event", "lower", 0},
	{"des.pending_mean", "events", "lower", 0},
	{"netsim.enqueues", "count", "lower", 0},
	{"netsim.enqueue_ns", "ns", "lower", 0},
	{"netsim.dequeue_ns", "ns", "lower", 0},
	{"topology.sends", "count", "lower", 0},
	{"topology.send_ns", "ns", "lower", 0},
	{"topology.arrive_ns", "ns", "lower", 0},
	{"topology.attach_ns", "ns", "lower", 0},
	{"tfrc.data", "count", "lower", 0},
	{"tfrc.data_ns", "ns", "lower", 0},
	{"tfrc.feedbacks", "count", "lower", 0},
	{"tfrc.feedback_ns", "ns", "lower", 0},
	{"tcp.data", "count", "lower", 0},
	{"tcp.data_ns", "ns", "lower", 0},
	{"tcp.acks", "count", "lower", 0},
	{"tcp.ack_ns", "ns", "lower", 0},
	{"cbr.recv_ns", "ns", "lower", 0},
	{"fault.hook_calls", "count", "lower", 0},
	{"fault.hook_ns", "ns", "lower", 0},
	{"arrivals.attach_ns", "ns", "lower", 0},
	{"arrivals.detach_ns", "ns", "lower", 0},
	{"arrivals.constructions_per_arrival", "ratio", "lower", 0},
	{"arrivals.reclaim_ratio", "ratio", "higher", 0},
	{"shard.windows", "count", "lower", 0},
	{"shard.handoffs_per_event", "handoffs/event", "lower", 0},
	{"shard.arrive_ns", "ns", "lower", 0},
	{"shard.handoff_ns", "ns", "lower", 0},
	{"shard.barrier_wait_frac", "ratio", "lower", 0},
	{"shard.imbalance", "ratio", "lower", 0},
	{"checkpoint.snapshots", "count", "lower", 0},
	{"checkpoint.bytes_per_snapshot", "B", "lower", 0},
	{"checkpoint.write_ns_per_snapshot", "ns", "lower", 0},
	{"checkpoint.read_ns_per_snapshot", "ns", "lower", 0},
	{"checkpoint.resume_s", "s", "lower", 0},
	{"runner.jobs", "count", "lower", 0},
	{"runner.idle_frac", "ratio", "lower", 0},
	{"runtime.allocs_per_event", "allocs/event", "lower", 0},
	{"runtime.alloc_bytes_per_event", "B/event", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"bench.trace_overhead", "ratio", "lower", 0},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("ebrcbench: undeclared metric " + name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metricValue

// set records a metric; a ratio over an empty base reads 0.
func (m metrics) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// printTable writes the metrics by name with their units.
func printTable(w io.Writer, o options, m metrics) {
	defs := endToEndMetrics
	kind := "end-to-end"
	if o.trace {
		defs, kind = perLayerMetrics, "per-layer"
	}
	fmt.Fprintf(w, "# %s metrics, workload %s, seed %d\n", kind, o.workload, o.seed)
	for _, d := range defs {
		v := m[d.Name]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", d.Name, v.Value, v.Unit)
	}
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summarize turns the kept traced jobs into the per-layer figures the
// traced pass owns: counts at the seams and overhead-corrected self
// time per call.
func summarize(kept []*jobTrace, ov overhead) map[string]float64 {
	var lanes []*lane
	var events, cascaded, pendW, desSelf float64
	var windows, handoffs, shardEvents, waitNs, shardDriveNs, imbalance, shardJobs float64
	parallel := runtime.GOMAXPROCS(0) > 1
	for _, jt := range kept {
		lanes = append(lanes, jt.lanes...)
		ev := float64(jt.events)
		events += ev
		cascaded += float64(jt.cascaded)
		var pend float64
		for _, l := range jt.lanes {
			pend += ratio(float64(l.pendSum), float64(l.pendN))
		}
		pendW += pend * ev
		if !jt.shardLanes {
			d := &jt.main.cells[seamDrive][seamNone]
			desSelf += float64(d.Total) - float64(d.Count)*ov.Inner - rootTime(jt.main, seamDrive, ov)
			continue
		}
		// Shard drivers: each one's busy time inside the drive calls,
		// less the time inside its root-level seams. The sequential
		// driver runs the shards one after another within the calls.
		busy := float64(jt.driveNs)
		for i, l := range jt.lanes {
			if parallel {
				desSelf += float64(jt.driveNs) - float64(jt.barrierWait[i]) - rootTime(l, seamNone, ov)
			} else {
				busy -= rootTime(l, seamNone, ov)
			}
			waitNs += float64(jt.barrierWait[i])
		}
		if !parallel {
			desSelf += busy
		}
		shardDriveNs += float64(jt.driveNs) * float64(len(jt.lanes))
		windows += float64(jt.windows)
		handoffs += float64(jt.handoffs)
		shardEvents += ev
		var max, sum float64
		for _, f := range jt.shardFired {
			sum += float64(f)
			max = math.Max(max, float64(f))
		}
		imbalance += ratio(max*float64(len(jt.shardFired)), sum)
		shardJobs++
	}
	m := map[string]float64{}
	perCall := func(s seam) float64 {
		lt := seamTime(lanes, s, ov)
		return math.Max(0, ratio(lt.self, float64(lt.timed)))
	}
	count := func(s seam) float64 { return float64(seamTime(lanes, s, ov).count) }
	m["des.self_ns_per_event"] = ratio(desSelf, events)
	m["des.cascades_per_event"] = ratio(cascaded, events)
	m["des.pending_mean"] = ratio(pendW, events)
	m["netsim.enqueues"] = count(seamEnqueue)
	m["netsim.enqueue_ns"] = perCall(seamEnqueue)
	m["netsim.dequeue_ns"] = perCall(seamDequeue)
	m["topology.sends"] = count(seamSend)
	m["topology.send_ns"] = perCall(seamSend)
	m["topology.arrive_ns"] = perCall(seamArrive)
	m["topology.attach_ns"] = perCall(seamAttach)
	m["tfrc.data"] = count(seamTFRCData)
	m["tfrc.data_ns"] = perCall(seamTFRCData)
	m["tfrc.feedbacks"] = count(seamTFRCFeedback)
	m["tfrc.feedback_ns"] = perCall(seamTFRCFeedback)
	m["tcp.data"] = count(seamTCPData)
	m["tcp.data_ns"] = perCall(seamTCPData)
	m["tcp.acks"] = count(seamTCPAck)
	m["tcp.ack_ns"] = perCall(seamTCPAck)
	m["cbr.recv_ns"] = perCall(seamCBRRecv)
	m["fault.hook_calls"] = count(seamFault)
	m["fault.hook_ns"] = perCall(seamFault)
	m["arrivals.attach_ns"] = perCall(seamLiveAttach)
	m["arrivals.detach_ns"] = perCall(seamDetach)
	m["shard.windows"] = windows
	m["shard.handoffs_per_event"] = ratio(handoffs, shardEvents)
	m["shard.arrive_ns"] = perCall(seamShardArrive)
	m["shard.handoff_ns"] = perCall(seamHandoff)
	m["shard.barrier_wait_frac"] = ratio(waitNs, shardDriveNs)
	m["shard.imbalance"] = ratio(imbalance, shardJobs)
	return m
}

// layerMetrics completes a traced pass's figures with the counts and
// costs read in the untraced pass it was paired with.
func layerMetrics(u, t *passReport) map[string]float64 {
	m := map[string]float64{}
	for k, v := range t.Layer {
		m[k] = v
	}
	var events, jobSec, arrivals, constructions, reclaimed, resumeSec float64
	var snapshots, snapBytes, ckptJobs float64
	for _, j := range u.Jobs {
		events += float64(j.Events)
		jobSec += j.Seconds
		arrivals += float64(j.Arrivals)
		constructions += float64(j.Constructions)
		reclaimed += float64(j.Reclaimed)
		if j.Snapshots > 0 {
			ckptJobs++
			snapshots += float64(j.Snapshots)
			snapBytes += float64(j.SnapshotBytes)
			resumeSec += j.ResumeSeconds
		}
	}
	m["des.events"] = events
	m["arrivals.constructions_per_arrival"] = ratio(constructions, arrivals)
	m["arrivals.reclaim_ratio"] = ratio(reclaimed, arrivals)
	m["checkpoint.snapshots"] = snapshots
	m["checkpoint.bytes_per_snapshot"] = ratio(snapBytes, ckptJobs)
	m["checkpoint.write_ns_per_snapshot"] = u.CkptWriteNs
	m["checkpoint.read_ns_per_snapshot"] = u.CkptReadNs
	m["checkpoint.resume_s"] = ratio(resumeSec, ckptJobs)
	m["runner.jobs"] = float64(len(u.Jobs))
	m["runner.idle_frac"] = 1 - ratio(jobSec, float64(u.Workers)*u.Wall)
	m["runtime.allocs_per_event"] = ratio(float64(u.Mallocs), events)
	m["runtime.alloc_bytes_per_event"] = ratio(float64(u.AllocBytes), events)
	m["runtime.gc_cpu_frac"] = u.GCCPUFrac
	m["bench.trace_overhead"] = ratio(t.Wall, u.Wall)
	return m
}
