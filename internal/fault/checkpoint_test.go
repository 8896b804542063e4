package fault

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// twoLinkHost is a Host of two links on one scheduler.
type twoLinkHost struct {
	sched *des.Scheduler
	links [2]*netsim.Link
}

func (h *twoLinkHost) Links() int                               { return len(h.links) }
func (h *twoLinkHost) Link(id topology.LinkID) *netsim.Link     { return h.links[id] }
func (h *twoLinkHost) LinkSched(topology.LinkID) *des.Scheduler { return h.sched }

// armed arms plan on a fresh two-link host.
func armed(t *testing.T, plan *Plan) *Armed {
	t.Helper()
	h := &twoLinkHost{sched: &des.Scheduler{}}
	for i := range h.links {
		h.links[i] = netsim.NewLink(h.sched, 1e6, 0.01, netsim.NewDropTail(8))
	}
	a, err := Arm(h, plan)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// Each restore-side check of the fault section refuses a plan armed
// differently from the snapshot's, with an error naming the check.
func TestRestoreChecks(t *testing.T) {
	flap := func(link topology.LinkID) *Plan { return (&Plan{Seed: 1}).Flap(link, 1, 2, Drain) }
	cases := []struct {
		name           string
		saved, rebuilt *Armed
		want           string
	}{
		{"no plan rebuilt", armed(t, flap(0)), nil, "non-empty but the rebuilt run armed no plan"},
		{"event count", armed(t, flap(0)), armed(t, flap(0).Squeeze(1, 1, 2, 1e5, 1e6)), "fault event count: snapshot has 2, rebuilt has 4"},
		{"control count", armed(t, flap(0)), armed(t, flap(0).Burst(1, 20, 5, 0.5)), "fault link control count: snapshot has 1, rebuilt has 2"},
		{"control link id", armed(t, flap(0)), armed(t, flap(1)), "fault link control id: snapshot has 0, rebuilt has 1"},
	}
	for _, tc := range cases {
		var w checkpoint.Writer
		tc.saved.Checkpoint(w.Codec())
		r := checkpoint.NewReader(w.Bytes())
		tc.rebuilt.Checkpoint(r.Codec())
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// A nil plan saves two zero counts and restores against nil.
	var w checkpoint.Writer
	(*Armed)(nil).Checkpoint(w.Codec())
	r := checkpoint.NewReader(w.Bytes())
	(*Armed)(nil).Checkpoint(r.Codec())
	if w.Len() != 16 || r.Err() != nil {
		t.Fatalf("nil plan: %d bytes saved, restore error %v", w.Len(), r.Err())
	}
}
