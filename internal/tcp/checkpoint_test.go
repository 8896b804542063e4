package tcp

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/des"
)

// A sender or receiver snapshot restores only into the twin of its own
// flow: another flow's endpoint refuses it, naming the pairing.
func TestRestoreChecks(t *testing.T) {
	var s des.Scheduler
	net := buildDumbbell(&s, 1.25e6, 0.01, 64)
	snd1, rcv1 := NewFlow(&s, net, 1, DefaultConfig(), 0, 0.015)
	snd2, rcv2 := NewFlow(&s, net, 2, DefaultConfig(), 0, 0.015)
	cases := []struct {
		name          string
		save, restore func(checkpoint.Codec)
		want          string
	}{
		{"sender flow id", snd1.Checkpoint, snd2.Checkpoint, "tcp sender flow: snapshot has 1, rebuilt has 2"},
		{"receiver flow id", rcv1.Checkpoint, rcv2.Checkpoint, "tcp receiver flow: snapshot has 1, rebuilt has 2"},
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
