package shard

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/netsim"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

// cutCluster returns a two-shard cluster carrying one TFRC flow across
// its cut link, run to t when t > 0.
func cutCluster(t float64) *Cluster {
	c := New()
	n0 := c.AddNode("n0")
	n1 := c.AddNode("n1")
	l := c.AddLink(n0, n1, 1.25e6, 0.005, netsim.NewDropTail(32))
	c.SetDefaultRoute(l)
	c.Partition(2)
	ss, rs := c.FlowEnv(1)
	snd, _ := tfrc.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 1, tfrc.DefaultConfig(), 0.005, 0.02)
	ss.Sched().At(0, snd.Start)
	if t > 0 {
		c.Run(t)
	}
	return c
}

// twin returns an unrun cutCluster with every shard's clock set to
// src's, as a resume sets the clocks before the snapshot's timers are
// re-armed.
func twin(src *Cluster) *Cluster {
	c := cutCluster(0)
	for i, s := range c.shards {
		from := &src.shards[i].sched
		s.sched.Reset()
		s.sched.RestoreClock(from.Now(), from.Seq(), from.Fired(), from.Cascaded())
	}
	return c
}

// Each restore-side check a cluster snapshot makes on the messages in
// flight across its cut — pending arrivals held by the destination
// shard — refuses a snapshot whose arrivals differ where it looks (an
// unknown kind, a dead timer) with an error naming the check, while the
// unspoiled snapshot restores cleanly.
func TestRestoreChecks(t *testing.T) {
	cases := []struct {
		name  string
		spoil func(dst *Shard)
		want  string
	}{
		{"unspoiled", func(*Shard) {}, ""},
		{"arrival kind", func(dst *Shard) {
			dst.Accept(topology.DeliveryKind(9), &netsim.Packet{Flow: 1, Size: 1000}, dst.sched.Now()+0.01, dst.sched.Now())
		}, "unknown delivery kind 9"},
		{"dead arrival timer", func(dst *Shard) { dst.sched.Reset() }, "pending delivery saved without a live timer"},
	}
	for _, tc := range cases {
		c := cutCluster(1.5)
		if c.Deliveries(topology.ToNode) == 0 {
			t.Fatal("no arrival pending across the cut; the test exercises nothing")
		}
		tc.spoil(c.shards[1])
		var w checkpoint.Writer
		c.CheckpointDeliveries(w.Codec())
		c.CheckpointHandoffs(w.Codec())
		r := checkpoint.NewReader(w.Bytes())
		back := twin(c)
		back.CheckpointDeliveries(r.Codec())
		back.CheckpointHandoffs(r.Codec())
		err := r.Err()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: restore error %v, want none", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
