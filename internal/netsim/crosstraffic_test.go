package netsim

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/des"
)

// sentLog is a Network that records every forward packet's send time
// and sequence number and recycles it at once.
type sentLog struct {
	sched *des.Scheduler
	sent  [][2]float64
}

func (n *sentLog) GetPacket() *Packet { return &Packet{} }
func (n *sentLog) PutPacket(*Packet)  {}
func (n *sentLog) SendForward(p *Packet) {
	n.sent = append(n.sent, [2]float64{n.sched.Now(), float64(p.Seq)})
}
func (n *sentLog) SendReverse(*Packet)                                  {}
func (n *sentLog) AttachFlow(int, Endpoint, Endpoint, float64, float64) {}

// A cross-traffic source saved in the middle of a burst and restored
// into a freshly built twin on a restored scheduler emits exactly the
// (time, seq) packets the uninterrupted source emits from there on.
func TestCrossTrafficSaveRestoreMidBurst(t *testing.T) {
	build := func() (*des.Scheduler, *sentLog, *CrossTraffic) {
		s := &des.Scheduler{}
		net := &sentLog{sched: s}
		return s, net, NewCrossTraffic(s, net, 7, 1e5, 20, 1.5, 0.05, 1000, 11)
	}
	const end = 5.0

	refSched, refNet, ref := build()
	ref.Start()
	refSched.RunUntil(end)

	s, net, ct := build()
	ct.Start()
	// Step until the source sits inside a burst with packets still to go.
	for at := 0.001; !(ct.stepping && ct.remaining > 0); at += 0.001 {
		if at > end/2 {
			t.Fatal("no burst in progress before mid-run")
		}
		s.RunUntil(at)
	}
	cut := len(net.sent)
	var w checkpoint.Writer
	ct.Checkpoint(w.Codec())

	s2, net2, twin := build()
	s2.RestoreClock(s.Now(), s.Seq(), s.Fired(), s.Cascaded())
	r := checkpoint.NewReader(w.Bytes())
	twin.Checkpoint(r.Codec())
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := s2.Pending(), s.Pending(); got != want {
		t.Fatalf("restored scheduler has %d pending events, original %d", got, want)
	}
	s2.RunUntil(end)

	want := refNet.sent[cut:]
	if len(want) == 0 {
		t.Fatal("the reference source sent nothing after the cut")
	}
	if len(net2.sent) != len(want) {
		t.Fatalf("restored source sent %d packets after the cut, reference %d", len(net2.sent), len(want))
	}
	for i := range want {
		if net2.sent[i] != want[i] {
			t.Fatalf("packet %d: restored (t, seq) = %v, reference %v", i, net2.sent[i], want[i])
		}
	}
	if twin.PacketsSent != ref.PacketsSent {
		t.Fatalf("PacketsSent = %d, reference %d", twin.PacketsSent, ref.PacketsSent)
	}
}
