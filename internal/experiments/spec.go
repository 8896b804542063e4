package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"

	"repro/internal/arrivals"
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// A packet-level run is declared, not coded. RunSim, RunRevSim and
// RunTopoSim each translate their config into a runSpec, and one driver
// (run.go) validates, builds, steps, snapshots and collects every spec
// the same way. The spec lists the simulation in build order — nodes,
// links with their queues, the default routes, reverse jitter and the
// fault plan, flow groups, the probe and cross-traffic sources, churn
// classes — and the driver builds it in that order, drawing from the
// run's seed stream exactly where each element needs randomness. A new
// sender is one more protocol kind on a flow group, not another driver.

// runSpec declares one packet-level simulation.
type runSpec struct {
	// label names the run for checkpointing: the snapshot file is
	// Checkpoint.Dir/<sanitized label>.ckpt. An empty label opts the run
	// out of checkpoint and resume.
	label string
	// resume, when set, continues the run from its snapshot in this
	// directory. It says where to read the run from, not what the run
	// is, so the config digest leaves it out.
	resume string

	seed             uint64
	shards           int
	warmup, duration float64
	// forceEpochs is the run's own epoch-log floor (see
	// TopoSimConfig.ForceEpochs).
	forceEpochs int

	nodes []string
	links []linkSpec
	// fwd is the default forward route: flows without their own route
	// ride it, and unattached cross traffic sinks at its end. rev, when
	// non-nil, is the default routed reverse path; nil keeps every flow
	// without its own reverse route on the pure-delay reverse path.
	fwd, rev []topology.LinkID
	jitter   float64
	faults   *fault.Plan
	groups   []flowGroup
	probe    probeSpec
	cross    []crossSpec
	churn    []arrivals.Class
}

// linkSpec declares one directed link and its queue.
type linkSpec struct {
	from, to    topology.NodeID
	rate, delay float64
	queue       QueueKind
	buffer      int     // DropTail capacity in packets
	bdp         float64 // RED threshold sizing in packets
}

// flowGroup declares count persistent flows of one protocol sharing a
// route, terminal delays and TFRC configuration. Flow ids follow
// declaration order.
type flowGroup struct {
	// name is the config field that sizes the group; errors name it.
	name  string
	proto arrivals.Proto // TFRC or TCP
	count int
	// primary marks the run's measured classes: a run needs at least one
	// primary flow. Crossing and opposing-direction flows are not.
	primary bool
	// tfrc configures a TFRC group's flows; each draws its own Seed.
	tfrc tfrc.Config
	// route and revRoute are the group's own forward and routed reverse
	// paths; nil leaves the default route and reverse path.
	route, revRoute    []topology.LinkID
	fwdExtra, revDelay float64
	// spread scales flow i's terminal delays by 1 + spread·i/(count-1).
	spread float64
	// watch, when set, samples each flow's send rate around one outage
	// (TFRC groups).
	watch *RecoveryWatch
}

// probeSpec declares the Poisson probe: rate packets/second of 1000-byte
// packets over the default route, its losses grouped over rtt, returning
// over the pure-delay reverse path of revDelay. A zero rate declares no
// probe.
type probeSpec struct {
	rate, rtt, revDelay float64
}

// crossSpec declares one unresponsive on/off cross-traffic source
// offering load·capacity bytes/second: Pareto bursts of mean 20 packets
// of 1000 bytes at peak bytes/second, exponential off periods solved
// from the load.
type crossSpec struct {
	// route, when set, carries the source as a sink flow; nil leaves it
	// unattached, sinking at the end of the default route.
	route                []topology.LinkID
	capacity, peak, load float64
}

// node declares a node and returns its id.
func (sp *runSpec) node(name string) topology.NodeID {
	sp.nodes = append(sp.nodes, name)
	return topology.NodeID(len(sp.nodes) - 1)
}

// link declares a link and returns its id.
func (sp *runSpec) link(l linkSpec) topology.LinkID {
	sp.links = append(sp.links, l)
	return topology.LinkID(len(sp.links) - 1)
}

// checkpointed reports whether the run snapshots or resumes.
func (sp *runSpec) checkpointed() bool {
	return sp.label != "" && (sp.resume != "" || Checkpoint.Every > 0 && Checkpoint.Dir != "")
}

// validate reports the first problem that would make the build panic or
// the run meaningless. The driver calls it before drawing a cluster.
func (sp *runSpec) validate() error {
	if !(sp.duration > 0) {
		return fmt.Errorf("Duration %v must be positive", sp.duration)
	}
	if !(sp.warmup >= 0) {
		return fmt.Errorf("Warmup %v must not be negative", sp.warmup)
	}
	for i, l := range sp.links {
		if !(l.rate > 0) {
			return fmt.Errorf("link %d: capacity %v must be positive", i, l.rate)
		}
		if !(l.delay >= 0) {
			return fmt.Errorf("link %d: delay %v must not be negative", i, l.delay)
		}
		switch l.queue {
		case DropTail:
			if l.buffer < 1 {
				return fmt.Errorf("link %d: DropTail Buffer %d must hold at least one packet", i, l.buffer)
			}
		case RED, unbounded:
		default:
			return fmt.Errorf("link %d: unknown Queue kind %d", i, l.queue)
		}
	}
	if len(sp.fwd) == 0 {
		return errors.New("the default route has no hops")
	}
	if sp.rev != nil && len(sp.rev) == 0 {
		return errors.New("the default reverse route is declared with no hops")
	}
	flows := 0
	for _, g := range sp.groups {
		if g.count < 0 {
			return fmt.Errorf("%s %d is negative", g.name, g.count)
		}
		if g.proto == arrivals.TFRC && g.tfrc.Window < 1 {
			return fmt.Errorf("%s: TFRC window L %d must be at least 1", g.name, g.tfrc.Window)
		}
		if g.primary {
			flows += g.count
		}
	}
	if flows == 0 {
		var primary []string
		for _, g := range sp.groups {
			if g.primary {
				primary = append(primary, g.name)
			}
		}
		return fmt.Errorf("need at least one flow, %s is 0", strings.Join(primary, " + "))
	}
	for i, c := range sp.cross {
		if !(c.load > 0) {
			return fmt.Errorf("cross traffic %d: load %v must be positive", i, c.load)
		}
	}
	if sp.faults != nil {
		if err := sp.faults.Validate(len(sp.links)); err != nil {
			return fmt.Errorf("invalid fault plan: %w", err)
		}
	}
	for _, cl := range sp.churn {
		if len(cl.FwdHops) == 0 {
			return fmt.Errorf("churn class %q has no route (a reverse class needs MirrorRev)", cl.Name)
		}
	}
	if Observe.TraceCap > 0 && sp.checkpointed() {
		return errors.New("checkpoint/resume is incompatible with event tracing (-trace): the bounded trace rings are not part of a snapshot")
	}
	return nil
}

// digest folds every field of the spec but resume, together with the
// run's effective epoch count, into one 64-bit value. A snapshot
// restores only into a run whose digest matches exactly: anything else
// is a different simulation, and resuming into it would silently
// corrupt output. The fold walks the spec by reflection, so a field
// added to it is covered without a list to keep in step. Only
// checkpointing runs compute it.
func (sp *runSpec) digest(epochs int) uint64 {
	id := *sp
	id.resume = ""                // where the run is read from, not what it is
	id.shards = max(id.shards, 1) // 0 and 1 both run the serial engine
	var d checkpoint.Digest
	d.Int(epochs)
	fold(&d, reflect.ValueOf(id))
	return d.Sum()
}

// fold writes v into the digest depth first, fields in declaration
// order, a pointer's presence and a slice's length ahead of what they
// hold.
func fold(d *checkpoint.Digest, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fold(d, v.Field(i))
		}
	case reflect.Pointer:
		d.Bool(!v.IsNil())
		if !v.IsNil() {
			fold(d, v.Elem())
		}
	case reflect.Slice:
		d.Int(v.Len())
		for i := 0; i < v.Len(); i++ {
			fold(d, v.Index(i))
		}
	case reflect.Bool:
		d.Bool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.I64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.U64(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.F64(v.Float())
	case reflect.String:
		d.Str(v.String())
	default:
		panic("experiments: the config digest cannot fold a " + v.Kind().String())
	}
}
