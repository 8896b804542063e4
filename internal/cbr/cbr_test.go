package cbr

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/formula"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/tcp"
	"repro/internal/topology"
)

func TestProbeCountsLossEvents(t *testing.T) {
	var s des.Scheduler
	link := netsim.NewLink(&s, 1.25e6, 0.01, netsim.NewDropTail(50))
	net := topology.NewDumbbell(&s, link)
	// Saturating TCP flow creates periodic loss episodes; the probe
	// samples them.
	csnd, _ := tcp.NewFlow(&s, net, 1, tcp.DefaultConfig(), 0, 0.015)
	probe := NewProbe(&s, net, &s, 2, 1000, 20, true, 0.05, 3, 0, 0.015)
	csnd.Start()
	probe.Start()
	s.RunUntil(30)
	probe.ResetStats()
	s.RunUntil(330)
	st := probe.Stats()
	if st.PacketsSent < 5000 {
		t.Fatalf("probe sent only %d packets", st.PacketsSent)
	}
	if st.LossEvents == 0 {
		t.Fatal("probe saw no loss events on a congested link")
	}
	if st.LossEventRate <= 0 || st.LossEventRate > 0.2 {
		t.Fatalf("probe loss-event rate = %v", st.LossEventRate)
	}
}

func TestProbeCBRSpacing(t *testing.T) {
	var s des.Scheduler
	link := netsim.NewLink(&s, 1e9, 0, netsim.NewDropTail(1000))
	net := topology.NewDumbbell(&s, link)
	var arrivals []float64
	net.AttachFlow(7, netsim.EndpointFunc(func(*netsim.Packet) {}),
		netsim.EndpointFunc(func(p *netsim.Packet) { arrivals = append(arrivals, s.Now()) }), 0, 0)
	p := &Probe{sched: &s, net: net, flow: 7, size: 100, rate: 10, random: rng.New(1), rttGuess: 0.1}
	p.events = netsim.NewLossEventCounter(func() float64 { return 0.1 })
	p.Start()
	s.RunUntil(1.05)
	// 10 packets/s CBR: arrivals 0.1 apart (after the first immediate one).
	if len(arrivals) < 10 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	gap := arrivals[5] - arrivals[4]
	if math.Abs(gap-0.1) > 1e-6 {
		t.Fatalf("CBR gap = %v, want 0.1", gap)
	}
}

func TestPoissonProbeExponentialGaps(t *testing.T) {
	var s des.Scheduler
	link := netsim.NewLink(&s, 1e9, 0, netsim.NewDropTail(100000))
	net := topology.NewDumbbell(&s, link)
	probe := NewProbe(&s, net, &s, 7, 100, 50, true, 0.1, 5, 0, 0)
	var arrivals []float64
	inner := link.Deliver
	link.Deliver = func(p *netsim.Packet) {
		arrivals = append(arrivals, s.Now())
		inner(p)
	}
	probe.Start()
	s.RunUntil(200)
	if len(arrivals) < 5000 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// Mean gap ~ 1/50 s; CV ~ 1 for exponential.
	gaps := make([]float64, len(arrivals)-1)
	sum := 0.0
	for i := 1; i < len(arrivals); i++ {
		gaps[i-1] = arrivals[i] - arrivals[i-1]
		sum += gaps[i-1]
	}
	mean := sum / float64(len(gaps))
	if math.Abs(mean-0.02) > 0.002 {
		t.Fatalf("mean gap = %v, want 0.02", mean)
	}
	varsum := 0.0
	for _, g := range gaps {
		varsum += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(varsum/float64(len(gaps))) / mean
	if cv < 0.9 || cv > 1.1 {
		t.Fatalf("gap cv = %v, want ~1 (exponential)", cv)
	}
}

// Figure 6 reproduced at the module level: the audio sender is
// conservative with SQRT and non-conservative with PFTK under heavy loss.
func TestAudioClaim2(t *testing.T) {
	params := formula.ParamsForRTT(0.2)
	heavy := 0.2
	sqrtRes := NewAudio(formula.NewSQRT(params), 4, 0.02, heavy, 11).Run(200000, 1000)
	if sqrtRes.Normalized > 1.005 {
		t.Fatalf("SQRT audio normalized = %v, want <= 1", sqrtRes.Normalized)
	}
	pftkRes := NewAudio(formula.NewPFTKSimplified(params), 4, 0.02, heavy, 12).Run(200000, 1000)
	if pftkRes.Normalized < 1.01 {
		t.Fatalf("PFTK audio normalized = %v, want > 1", pftkRes.Normalized)
	}
	// Light loss: both conservative.
	light := NewAudio(formula.NewPFTKSimplified(params), 4, 0.02, 0.005, 13).Run(100000, 1000)
	if light.Normalized > 1.01 {
		t.Fatalf("light-loss PFTK audio normalized = %v, want <= 1", light.Normalized)
	}
	// The measured loss-event rate tracks the drop probability
	// (geometric intervals, every loss its own event).
	if math.Abs(pftkRes.LossEventRate-heavy)/heavy > 0.05 {
		t.Fatalf("audio loss-event rate = %v, want ~%v", pftkRes.LossEventRate, heavy)
	}
	if pftkRes.CVEstimatorSq <= 0 {
		t.Fatal("estimator CV² should be positive")
	}
}

// Figure 6 bottom plots the squared CV of θ̂. For geometric intervals
// the exact value is cv²[θ̂] = (1-p)·Σw² (i.i.d. inputs through the
// normalized moving average): ~0.284·(1-p) for the L = 4 TFRC weights.
// Note this is mildly DECREASING in p; the paper's plot shows an
// increasing trend, which is a finite-sample artifact at small p (few
// loss events in a fixed-duration run) — see EXPERIMENTS.md.
func TestAudioCVMatchesTheory(t *testing.T) {
	params := formula.ParamsForRTT(0.2)
	sumW2 := 0.0
	for _, w := range []float64{1.0 / 3, 1.0 / 3, 2.0 / 9, 1.0 / 9} {
		sumW2 += w * w
	}
	for _, p := range []float64{0.05, 0.25} {
		got := NewAudio(formula.NewSQRT(params), 4, 0.02, p, 21).Run(300000, 1000).CVEstimatorSq
		want := (1 - p) * sumW2
		if math.Abs(got-want)/want > 0.05 {
			t.Fatalf("p=%v: cv² = %v, want %v", p, got, want)
		}
	}
}

// Larger L smooths the estimator and weakens both effects (the paper's
// L = 8 remark for Figure 6).
func TestAudioLargerLWeakerEffect(t *testing.T) {
	params := formula.ParamsForRTT(0.2)
	over := func(L int) float64 {
		res := NewAudio(formula.NewPFTKSimplified(params), L, 0.02, 0.2, 31).Run(200000, 1000)
		return res.Normalized - 1
	}
	o4, o8 := over(4), over(8)
	if o4 <= 0 || o8 <= 0 {
		t.Fatalf("overshoot should be positive: L4=%v L8=%v", o4, o8)
	}
	if o8 >= o4 {
		t.Fatalf("L=8 overshoot %v should be below L=4 overshoot %v", o8, o4)
	}
}

func TestPanics(t *testing.T) {
	var s des.Scheduler
	link := netsim.NewLink(&s, 1e6, 0, netsim.NewDropTail(10))
	net := topology.NewDumbbell(&s, link)
	f := formula.NewSQRT(formula.DefaultParams())
	cases := []func(){
		func() { NewProbe(nil, net, &s, 1, 100, 1, false, 0.1, 1, 0, 0) },
		func() { NewProbe(&s, net, &s, 1, 0, 1, false, 0.1, 1, 0, 0) },
		func() { NewProbe(&s, net, &s, 1, 100, 0, false, 0.1, 1, 0, 0) },
		func() { NewProbe(&s, net, &s, 1, 100, 1, false, 0, 1, 0, 0) },
		func() {
			p := NewProbe(&s, net, &s, 2, 100, 1, false, 0.1, 1, 0, 0)
			p.Start()
			p.Start()
		},
		func() { NewAudio(nil, 4, 0.02, 0.1, 1) },
		func() { NewAudio(f, 0, 0.02, 0.1, 1) },
		func() { NewAudio(f, 4, 0, 0.1, 1) },
		func() { NewAudio(f, 4, 0.02, 0, 1) },
		func() { NewAudio(f, 4, 0.02, 0.1, 1).Run(0, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
