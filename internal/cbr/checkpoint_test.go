package cbr

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// A probe snapshot restores only into the twin of its own flow: another
// flow's probe refuses it, naming the pairing.
func TestRestoreChecks(t *testing.T) {
	var s des.Scheduler
	net := topology.NewDumbbell(&s, netsim.NewLink(&s, 1.25e6, 0.01, netsim.NewDropTail(50)))
	a := NewProbe(&s, net, &s, 1, 1000, 20, true, 0.05, 3, 0, 0.015)
	b := NewProbe(&s, net, &s, 2, 1000, 20, true, 0.05, 3, 0, 0.015)
	var w checkpoint.Writer
	a.Checkpoint(w.Codec())
	r := checkpoint.NewReader(w.Bytes())
	b.Checkpoint(r.Codec())
	if err, want := r.Err(), "cbr probe flow: snapshot has 1, rebuilt has 2"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore error %v, want one containing %q", err, want)
	}
}

// Renew accepts a probe that never started or has quiesced, and the
// renewed probe saves the same snapshot bytes as a probe freshly built
// for the same flow, parameters and seed: a recycled probe is a fresh
// one. A running probe is refused.
func TestRenewEqualsFresh(t *testing.T) {
	dumbbell := func(s *des.Scheduler) *topology.Dumbbell {
		return topology.NewDumbbell(s, netsim.NewLink(s, 1.25e6, 0.01, netsim.NewDropTail(4)))
	}
	save := func(p *Probe) []byte {
		var w checkpoint.Writer
		p.CheckpointPair(w.Codec())
		return w.Bytes()
	}
	var fs des.Scheduler
	fnet := dumbbell(&fs)
	fresh := NewProbeRaw(&fs, fnet, &fs, 7, 500, 300, false, 0.02, 99)
	for _, started := range []bool{false, true} {
		var s des.Scheduler
		p := NewProbe(&s, dumbbell(&s), &s, 1, 1000, 5000, true, 0.05, 3, 0, 0.015)
		if started {
			p.SetTotalPackets(400)
			p.Start()
			s.Run()
			if !p.Quiesced() || len(p.events.Intervals) == 0 {
				t.Fatalf("probe ended quiesced=%v with %d loss intervals; want a quiesced probe with a loss history",
					p.Quiesced(), len(p.events.Intervals))
			}
		}
		p.Renew(7, 500, 300, false, 0.02, 99)
		if got, want := save(p), save(fresh); string(got) != string(want) {
			t.Errorf("started=%v: the renewed probe saves %d bytes that differ from a fresh probe's %d", started, len(got), len(want))
		}
	}

	var s des.Scheduler
	running := NewProbe(&s, dumbbell(&s), &s, 1, 1000, 20, false, 0.05, 3, 0, 0.015)
	running.Start()
	s.RunUntil(0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("Renew of a running probe did not panic")
		}
	}()
	running.Renew(2, 1000, 20, false, 0.05, 3)
}
