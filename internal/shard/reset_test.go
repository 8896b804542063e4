package shard

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/tfrc"
)

// After a run and Reset, a pooled cluster must keep capacity only: no
// shard's injection pool reaches a record past its length, so an
// injection still pending when the run ended keeps nothing alive.
func TestResetLetsGoOfInjections(t *testing.T) {
	c := New()
	n0 := c.AddNode("n0")
	n1 := c.AddNode("n1")
	l := c.AddLink(n0, n1, 1.25e6, 0.005, netsim.NewDropTail(32))
	c.SetDefaultRoute(l)
	c.Partition(2)
	ss, rs := c.FlowEnv(1)
	snd, _ := tfrc.NewFlowOn(ss.Sched(), ss, rs.Sched(), rs, 1, tfrc.DefaultConfig(), 0.005, 0.02)
	ss.Sched().At(0, snd.Start)
	c.Run(1.5)
	shards := c.shards
	pending := 0
	for _, s := range shards {
		pending += len(s.liveInj)
	}
	if pending == 0 {
		t.Fatal("no injection pending at the end of the run; the test exercises nothing")
	}
	c.Reset()
	for i, s := range shards {
		for _, in := range s.ipool[len(s.ipool):cap(s.ipool)] {
			if in != nil {
				t.Fatalf("shard %d: injection pool reaches a record past its length after Reset", i)
			}
		}
		for _, in := range s.liveInj[:cap(s.liveInj)] {
			if in != nil {
				t.Fatalf("shard %d: live-injection registry still reaches a record after Reset", i)
			}
		}
	}
}
