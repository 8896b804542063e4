package topology

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/netsim"
)

// dumbbell returns a one-link network with the given flows attached,
// each with a 5 ms pure-delay leg after the link.
func dumbbell(flows ...int) (*des.Scheduler, *Network) {
	s := &des.Scheduler{}
	d := NewDumbbell(s, netsim.NewLink(s, 1e6, 0.02, netsim.NewDropTail(100)))
	e := netsim.EndpointFunc(func(p *netsim.Packet) { d.PutPacket(p) })
	for _, f := range flows {
		d.AttachFlow(f, e, e, 0.005, 0.025)
	}
	return s, d.Network
}

// delivering returns a dumbbell whose one packet of flow 1 has left the
// link and waits in its pure-delay hand-off; kill, when set, then drops
// the hand-off's timer, a state a running network never has.
func delivering(kill bool) *Network {
	s, n := dumbbell(1)
	send(n, 1, 1000)
	s.RunUntil(0.022)
	if len(n.doms[0].liveDel) != 1 {
		panic("test packet is not in its pure-delay hand-off")
	}
	if kill {
		n.doms[0].liveDel[0].tm = des.Timer{}
	}
	return n
}

// arriving returns a dumbbell holding one packet that another domain
// handed over, pending until it reaches the link's head node, after
// spoil has edited that pending delivery into a state a running network
// never has.
func arriving(spoil func(*delivery)) *Network {
	_, n := dumbbell(1)
	d := n.doms[0]
	d.Accept(ToNode, &netsim.Packet{Flow: 1, Size: 1000}, 0.01, 0)
	spoil(d.liveDel[0])
	return n
}

// Each restore-side check of the network's snapshot sections refuses a
// twin that differs where it looks, with an error naming the check.
func TestRestoreChecks(t *testing.T) {
	net := func(flows ...int) *Network { _, n := dumbbell(flows...); return n }
	watching := func(count int) *Network {
		n := net()
		n.WatchFlows(10, count, func(int) {})
		return n
	}
	hops := func(k int) *Network { n, _ := chain(&des.Scheduler{}, k, 1e6, 0.01, 10); return n }
	cases := []struct {
		name          string
		save, restore func(checkpoint.Codec)
		want          string
	}{
		{"link count", hops(2).CheckpointLinks, hops(3).CheckpointLinks, "link count: snapshot has 2, rebuilt has 3"},
		{"attached flow count", net(1, 2).CheckpointFlows, net(1).CheckpointFlows, "attached flow count: snapshot has 2, rebuilt has 1"},
		{"saved flow attached", net(1, 2).CheckpointFlows, net(1, 3).CheckpointFlows, "saved flow 2 is not attached"},
		{"watched flow count", watching(2).CheckpointLedger, watching(3).CheckpointLedger, "watched flow count: snapshot has 2, rebuilt has 3"},
		{"delivery flow attached", delivering(false).CheckpointDeliveries, net(2).CheckpointDeliveries, "pending delivery for unattached flow 1"},
		{"dead delivery timer", delivering(true).CheckpointDeliveries, net(1).CheckpointDeliveries, "pending delivery saved without a live timer"},
		{"delivery kind", arriving(func(dv *delivery) { dv.kind = 9 }).CheckpointDeliveries, net(1).CheckpointDeliveries, "unknown delivery kind 9"},
		{"dead node delivery timer", arriving(func(dv *delivery) { dv.tm = des.Timer{} }).CheckpointDeliveries, net(1).CheckpointDeliveries, "pending delivery saved without a live timer"},
	}
	for _, tc := range cases {
		var w checkpoint.Writer
		tc.save(w.Codec())
		r := checkpoint.NewReader(w.Bytes())
		tc.restore(r.Codec())
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
