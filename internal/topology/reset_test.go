package topology_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/tcp"
	"repro/internal/topology"
)

// After a run and Reset, a pooled cluster keeps capacity only: no
// domain's delivery registry or pool reaches a record past its length,
// so a cross-shard delivery still pending when the run ended keeps
// neither its packet nor its endpoint alive.
func TestClusterResetLetsGoOfDeliveries(t *testing.T) {
	c := shard.New()
	n0 := c.AddNode("n0")
	n1 := c.AddNode("n1")
	l := c.AddLink(n0, n1, 1.25e6, 0.005, netsim.NewDropTail(32))
	c.SetDefaultRoute(l)
	c.Partition(2)
	ss, rs := c.FlowEnv(1)
	snd, _ := tcp.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 1, tcp.DefaultConfig(), 0.005, 0.02)
	ss.Sched().At(0, snd.Start)
	c.Run(1.5)
	if c.Deliveries(topology.ToNode) == 0 || c.Deliveries(topology.ToSender) == 0 {
		t.Fatalf("%d node and %d sender deliveries pending at the end of the run; the test needs both",
			c.Deliveries(topology.ToNode), c.Deliveries(topology.ToSender))
	}
	doms := []*topology.Domain{c.Domain(0), c.Domain(1)}
	c.Reset()
	for i, d := range doms {
		if topology.StrayDeliveries(d) {
			t.Errorf("domain %d: the delivery registry or pool reaches a record past its length after Reset", i)
		}
	}
}
