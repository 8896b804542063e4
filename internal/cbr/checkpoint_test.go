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
	a := NewProbe(&s, net, 1, 1000, 20, true, 0.05, 3, 0, 0.015)
	b := NewProbe(&s, net, 2, 1000, 20, true, 0.05, 3, 0, 0.015)
	var w checkpoint.Writer
	a.Checkpoint(w.Codec())
	r := checkpoint.NewReader(w.Bytes())
	b.Checkpoint(r.Codec())
	if err, want := r.Err(), "cbr probe flow: snapshot has 1, rebuilt has 2"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore error %v, want one containing %q", err, want)
	}
}
