package main

import (
	"encoding/json"
	"os"
	"time"
)

// seam names one traced call site: a public boundary of a layer that
// the traced pass wraps from the outside.
type seam uint8

const (
	seamNone         seam = iota // the bottom of a lane's stack
	seamDrive                    // des: Scheduler.RunUntil / Cluster.Run
	seamEnqueue                  // netsim: Queue.Enqueue
	seamDequeue                  // netsim: Queue.Dequeue
	seamSend                     // topology: Network.SendForward/SendReverse
	seamArrive                   // topology: Link.Deliver
	seamAttach                   // topology: Network.AttachFlow
	seamShardAttach              // shard: Shard.AttachFlow
	seamShardSend                // shard: Shard.SendForward/SendReverse
	seamShardArrive              // shard: Link.Deliver on a shard-local link
	seamHandoff                  // shard: Link.Handoff on a cut link
	seamFault                    // fault: Link.Fault
	seamTFRCData                 // tfrc: Receiver.Receive
	seamTFRCFeedback             // tfrc: Sender.Receive
	seamTCPData                  // tcp: Receiver.Receive
	seamTCPAck                   // tcp: Sender.Receive
	seamCBRRecv                  // cbr: receiver endpoint
	seamCBRSend                  // cbr: sender endpoint
	seamProbeRecv                // the paper workload's Poisson probe receiver
	seamLiveAttach               // arrivals: Host.AttachLive
	seamDetach                   // arrivals: Lifecycle.DetachFlow
	nSeams
)

var seamNames = [nSeams]string{
	"", "des.drive", "netsim.enqueue", "netsim.dequeue",
	"topology.send", "topology.arrive", "topology.attach",
	"shard.attach", "shard.send", "shard.arrive", "shard.handoff", "fault.hook",
	"tfrc.data", "tfrc.feedback", "tcp.data", "tcp.ack",
	"cbr.recv", "cbr.send", "probe.recv", "arrivals.attach", "arrivals.detach",
}

// clockBase anchors every span timestamp; time.Since on a monotonic
// base reads one clock.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// sampleMask selects the spans whose time is taken while simulated time
// runs: a span at the root of a lane (directly under the drive loop, or
// with no parent at all on a shard's lane) is timed, together with its
// whole subtree, when the lane's xorshift draw has these bits clear —
// one root in 16. Every span is counted; times are scaled from the
// timed ones. Reading the clock costs tens of nanoseconds, about what a
// whole event costs, so timing every packet would drown the layers in
// tracing cost. Spans outside the drive loop (build-time attaches) are
// all timed.
const sampleMask = 15

// frame is an open span on a lane's stack.
type frame struct {
	s     seam
	timed bool
	start int64
	// child is the summed duration of the span's direct timed children,
	// kids their number and desc the number of all its descendants.
	child, kids, desc int64
}

// cell aggregates every closed span of one (seam, parent seam) pair:
// Count spans, of which Timed were timed; the other fields sum over
// the timed ones.
type cell struct {
	Count int64 `json:"count"`
	Timed int64 `json:"timed"`
	Total int64 `json:"total_ns"`
	Child int64 `json:"child_ns"`
	Kids  int64 `json:"kids"`
	Desc  int64 `json:"desc"`
}

// span is a fully recorded span: job-level and drive-loop calls.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// lane is the span store of one goroutine of one job: the serial
// engine's single event loop, or one shard's driver. Only its own
// goroutine writes it while the simulation runs.
type lane struct {
	stack []frame
	cells [nSeams][nSeams]cell
	rng   uint64
	mask  uint64
	// running is set while a drive-loop call advances the lane's
	// scheduler; only then are root spans sampled.
	running bool
	// pendSum/pendN sample the owning scheduler's pending set at every
	// enqueue.
	pendSum, pendN int64
}

func newLane() *lane { return &lane{rng: 0x9e3779b97f4a7c15, mask: sampleMask} }

func (l *lane) begin(s seam) {
	timed := true
	if n := len(l.stack); n > 0 && l.stack[n-1].s != seamDrive {
		timed = l.stack[n-1].timed
	} else if s != seamDrive && l.running {
		l.rng ^= l.rng << 13
		l.rng ^= l.rng >> 7
		l.rng ^= l.rng << 17
		timed = l.rng&l.mask == 0
	}
	f := frame{s: s, timed: timed}
	if timed {
		f.start = now()
	}
	l.stack = append(l.stack, f)
}

func (l *lane) end() {
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	parent := seamNone
	if n > 0 {
		parent = l.stack[n-1].s
	}
	c := &l.cells[f.s][parent]
	c.Count++
	if !f.timed {
		return
	}
	d := now() - f.start
	c.Timed++
	c.Total += d
	c.Child += f.child
	c.Kids += f.kids
	c.Desc += f.desc
	if n > 0 {
		p := &l.stack[n-1]
		p.child += d
		p.kids++
		p.desc += 1 + f.desc
	}
}

// overhead is the measured cost of an empty span: inner is what a timed
// empty span records as its own duration, outer what it adds to the
// span around it, and untimed what an untimed one adds.
type overhead struct {
	Inner   float64 `json:"inner_ns"`
	Outer   float64 `json:"outer_ns"`
	Untimed float64 `json:"untimed_ns"`
}

// calibrate measures the empty-span costs, keeping the cheapest of a
// few rounds so a preempted round does not inflate them.
func calibrate() overhead {
	const n, rounds = 200000, 7
	loop := func(mask uint64) *lane {
		l := newLane()
		l.mask, l.running = mask, true
		l.begin(seamDrive)
		for i := 0; i < n; i++ {
			l.begin(seamEnqueue)
			l.end()
		}
		l.end()
		return l
	}
	var best overhead
	for r := 0; r < rounds; r++ {
		timed, untimed := loop(0), loop(^uint64(0))
		o := overhead{
			Inner:   float64(timed.cells[seamEnqueue][seamDrive].Total) / n,
			Outer:   float64(timed.cells[seamDrive][seamNone].Total) / n,
			Untimed: float64(untimed.cells[seamDrive][seamNone].Total) / n,
		}
		if r == 0 || o.Outer+o.Untimed < best.Outer+best.Untimed {
			best = o
		}
	}
	return best
}

// layerTime is one seam's figures over a set of lanes.
type layerTime struct {
	count, timed int64
	// self is the overhead-corrected time of the timed spans, their
	// child spans excluded.
	self float64
}

// seamTime sums a seam's cells over every parent. A timed span's self
// time (its total minus its timed children's totals) holds its own
// inner cost plus, per direct child, the part of the child's cost
// outside the child's interval; both are subtracted.
func seamTime(lanes []*lane, s seam, ov overhead) layerTime {
	var lt layerTime
	var total, child, kids int64
	for _, l := range lanes {
		for p := range l.cells[s] {
			c := &l.cells[s][p]
			lt.count += c.Count
			lt.timed += c.Timed
			total += c.Total
			child += c.Child
			kids += c.Kids
		}
	}
	lt.self = float64(total-child) - float64(lt.timed)*ov.Inner - float64(kids)*(ov.Outer-ov.Inner)
	return lt
}

// rootTime estimates the wall time a lane spent inside the spans at its
// root level (parent seam root): their own time scaled from the timed
// ones to all of them, plus the tracing cost they added, timed and
// untimed.
func rootTime(l *lane, root seam, ov overhead) float64 {
	var t float64
	for s := seam(1); s < nSeams; s++ {
		c := &l.cells[s][root]
		if c.Count == 0 || s == seamDrive {
			continue
		}
		if c.Timed == 0 {
			t += float64(c.Count) * ov.Untimed
			continue
		}
		timed, count := float64(c.Timed), float64(c.Count)
		own := float64(c.Total) - timed*ov.Inner - float64(c.Desc)*ov.Outer
		spansPerRoot := 1 + float64(c.Desc)/timed
		t += own*count/timed + (timed+float64(c.Desc))*ov.Outer +
			(count-timed)*spansPerRoot*ov.Untimed
	}
	return t
}

// spanFile is the span store as written when a traced pass ends.
type spanFile struct {
	Workload string     `json:"workload"`
	Overhead overhead   `json:"empty_span_cost"`
	Spans    []span     `json:"spans"`
	Cells    []cellLine `json:"cells"`
}

// cellLine is one (job, lane, seam, parent) aggregate of the per-packet
// seams. Self is the timed spans' total less that of their timed
// children: raw, before the sampled spans are scaled up and the
// empty-span cost is subtracted.
type cellLine struct {
	Job    int    `json:"job"`
	Lane   int    `json:"lane"`
	Seam   string `json:"seam"`
	Parent string `json:"parent"`
	Self   int64  `json:"self_ns"`
	cell
}

func writeSpans(path, workload string, ov overhead, traces []*jobTrace) error {
	f := spanFile{Workload: workload, Overhead: ov}
	for _, jt := range traces {
		base := len(f.Spans)
		for i, s := range jt.spans {
			s.ID = base + i
			if i > 0 {
				s.Parent = base
			}
			f.Spans = append(f.Spans, s)
		}
		for li, l := range jt.lanes {
			for s := range l.cells {
				for p := range l.cells[s] {
					if c := l.cells[s][p]; c.Count > 0 {
						f.Cells = append(f.Cells, cellLine{Job: jt.id, Lane: li,
							Seam: seamNames[s], Parent: seamNames[p], Self: c.Total - c.Child, cell: c})
					}
				}
			}
		}
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
