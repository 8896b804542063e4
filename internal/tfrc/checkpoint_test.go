package tfrc

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
		{"sender flow id", snd1.Checkpoint, snd2.Checkpoint, "tfrc sender flow: snapshot has 1, rebuilt has 2"},
		{"receiver flow id", rcv1.Checkpoint, rcv2.Checkpoint, "tfrc receiver flow: snapshot has 1, rebuilt has 2"},
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

// Renew accepts a pair that never started or has quiesced, and the
// renewed pair saves the same snapshot bytes as a pair freshly built for
// the same flow, config and seed: a recycled pair is a fresh one.
func TestRenewEqualsFresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleStop, cfg.TotalPackets = 2, 400
	next := cfg
	next.Seed, next.TotalPackets = 99, 25
	save := func(s *Sender) []byte {
		var w checkpoint.Writer
		s.CheckpointPair(w.Codec())
		return w.Bytes()
	}
	var fs des.Scheduler
	fnet := buildDumbbell(&fs, 1.25e6, 0.01, 4)
	fresh, _ := NewFlowRaw(&fs, fnet, &fs, fnet, 7, next)
	for _, started := range []bool{false, true} {
		var s des.Scheduler
		net := buildDumbbell(&s, 1.25e6, 0.01, 4)
		snd, rcv := NewFlow(&s, net, 1, cfg, 0, 0.015)
		if started {
			snd.Start()
			s.Run()
			if !snd.Quiesced() || len(rcv.LossEvents().Intervals) == 0 {
				t.Fatalf("transfer ended quiesced=%v with %d loss intervals; want a quiesced pair with a loss history",
					snd.Quiesced(), len(rcv.LossEvents().Intervals))
			}
		}
		snd.Renew(7, next)
		if got, want := save(snd), save(fresh); string(got) != string(want) {
			t.Errorf("started=%v: the renewed pair saves %d bytes that differ from a fresh pair's %d", started, len(got), len(want))
		}
	}
}

// Renew refuses what it cannot honour: a pair with a live timer, and a
// config whose estimator window or RTT gain differs from the one the
// kept estimators were built with.
func TestRenewRefuses(t *testing.T) {
	var s des.Scheduler
	net := buildDumbbell(&s, 1.25e6, 0.01, 64)
	running, _ := NewFlow(&s, net, 1, DefaultConfig(), 0, 0.015)
	running.Start()
	s.RunUntil(0.5)
	idle, _ := NewFlow(&s, net, 2, DefaultConfig(), 0, 0.015)
	window, gain := DefaultConfig(), DefaultConfig()
	window.Window = 4
	gain.RTTq = 0.5
	cases := []struct {
		name string
		fn   func()
	}{
		{"live timer", func() { running.Renew(3, DefaultConfig()) }},
		{"window", func() { idle.Renew(3, window) }},
		{"rtt gain", func() { idle.Renew(3, gain) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Renew did not panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}
