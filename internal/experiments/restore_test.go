package experiments

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Each restore-side check of the run's section walk refuses a rebuilt
// run that differs where it looks, with an error naming the check; the
// unmodified twin restores cleanly.
func TestRunRestoreChecks(t *testing.T) {
	base := parkingLotBase(Sizing{SimFactor: 0.02})
	base.Hops, base.Seed = 2, 37
	built := func(mut func(*TopoSimConfig)) *run {
		cfg := base
		if mut != nil {
			mut(&cfg)
		}
		return build(cfg.spec(), shard.New())
	}
	src := built(nil)
	src.env.Run(base.Warmup + 1)
	var w checkpoint.Writer
	src.checkpoint(w.Codec())
	snap := w.Bytes()
	// The first scheduler record follows the scheduler count; its fifth
	// field is the pending-event count.
	const pendingAt = 8 + 4*8
	extra := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint64(extra[pendingAt:], binary.LittleEndian.Uint64(snap[pendingAt:])+1)
	cases := []struct {
		name    string
		payload []byte
		into    *run
		want    string
	}{
		{"scheduler count", snap, built(func(c *TopoSimConfig) { c.Shards = 2 }), "scheduler count: snapshot has 1, rebuilt has 2"},
		{"clock in window", snap, built(func(c *TopoSimConfig) { c.Warmup += 2 }), "outside this run's measured window"},
		{"component count", snap, built(func(c *TopoSimConfig) { c.NTFRC++ }), "stateful component count"},
		{"pending count", extra, built(nil), "pending events, snapshot recorded"},
		{"clean twin", snap, built(nil), ""},
	}
	for _, tc := range cases {
		r := checkpoint.NewReader(tc.payload)
		tc.into.checkpoint(r.Codec())
		err := r.Err()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	// The capture refuses more logged epochs than the run has.
	var ew checkpoint.Writer
	(&obsRun{epochs: 4, log: &obs.EpochLog{Epochs: make([]obs.Epoch, 3)}}).Checkpoint(ew.Codec())
	er := checkpoint.NewReader(ew.Bytes())
	(&obsRun{epochs: 2, log: &obs.EpochLog{}}).Checkpoint(er.Codec())
	if err, want := er.Err(), "snapshot logged 3 epochs, this run has 2"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("epoch count: restore error %v, want one containing %q", err, want)
	}
}
