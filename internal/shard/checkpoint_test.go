package shard

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/tfrc"
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

// firstInjection returns the first pending injection in shard order.
func firstInjection(c *Cluster) *injection {
	for _, s := range c.shards {
		if len(s.liveInj) > 0 {
			return s.liveInj[0]
		}
	}
	panic("no injection pending; the test exercises nothing")
}

// Each restore-side check of the handoff section refuses a snapshot
// whose pending injection differs where it looks — an unknown message
// kind, a dead timer — with an error naming the check.
func TestRestoreChecks(t *testing.T) {
	cases := []struct {
		name  string
		spoil func(in *injection)
		want  string
	}{
		{"injection kind", func(in *injection) { in.kind = 9 }, "unknown injection kind 9"},
		{"dead injection timer", func(in *injection) { in.tm = des.Timer{} }, "pending injection saved without a live timer"},
	}
	for _, tc := range cases {
		c := cutCluster(1.5)
		tc.spoil(firstInjection(c))
		var w checkpoint.Writer
		c.CheckpointHandoffs(w.Codec())
		r := checkpoint.NewReader(w.Bytes())
		cutCluster(0).CheckpointHandoffs(r.Codec())
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
