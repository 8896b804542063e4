package experiments

import (
	"repro/internal/arrivals"
	"repro/internal/runner"
)

// The churn scenario family exercises the run-time flow lifecycle
// engine (internal/arrivals): session arrival processes that attach
// finite TFRC/TCP/CBR transfers while the simulation runs and — on the
// serial executor — detach and recycle them once quiet. Each fold
// reports, per class, the Palm view of the population process (the mean
// population an arrival finds, E0[N]) next to the time-average
// population: PASTA makes the two agree for Poisson session arrivals
// and not for the bursty Weibull ones, the same inspection-paradox
// arithmetic the paper's Palm analysis builds on. Alongside, the
// persistent TFRC flows' normalized throughput x̄/f(p, r) tracks
// whether equation-based control stays conservative while the flow
// population churns, and the run's forced epoch log contributes the
// peak per-epoch drop rate — where in time the surge actually bit.

// churnEpochs is the epoch-log floor the churn folds consume: every
// churn run records at least this many per-epoch delta windows even on
// a plain CLI run.
const churnEpochs = 4

// peakEpochDropRate scans a run's epoch log for the worst per-epoch
// drop rate (queue + early + fault drops per second). Returns 0 when
// the run carried no epochs.
func peakEpochDropRate(res TopoSimResult) float64 {
	if res.Obs == nil || res.Obs.Epochs == nil {
		return 0
	}
	peak := 0.0
	for _, e := range res.Obs.Epochs.Epochs {
		if w := e.End - e.Start; w > 0 {
			if r := float64(e.QueueDrops+e.EarlyDrops+e.FaultDrops) / w; r > peak {
				peak = r
			}
		}
	}
	return peak
}

// churnRows renders one run's per-class rows: the shared run-level
// columns (normalized TFRC throughput, peak epoch drop rate) repeat on
// each class row so every row is self-contained.
func churnRows(res TopoSimResult) [][]float64 {
	norm := 0.0 // the persistent TFRC class's x̄/f(p, r), 0 without loss events
	if res.TFRC.Events != 0 {
		norm = pftkNorm(res.TFRC)
	}
	peakDrop := peakEpochDropRate(res)
	var rows [][]float64
	for i, c := range res.Churn {
		palmPop, timePop := c.PalmPop, c.TimePop
		ratio := 0.0
		if timePop > 0 {
			ratio = palmPop / timePop
		}
		rows = append(rows, []float64{
			float64(i), float64(c.Proto),
			float64(c.Arrivals), float64(c.Completions),
			float64(c.Peak), float64(c.ActiveAtEnd),
			c.MeanDuration, palmPop, timePop, ratio,
			norm, peakDrop,
		})
	}
	return rows
}

// churnColumns is the shared fold header of the family.
var churnColumns = []string{"class", "proto", "arrivals", "completions",
	"peak_pop", "active_end", "mean_dur", "palm_pop", "time_pop",
	"palm_over_time", "x_tfrc_norm", "peak_drop_rate"}

// planFlashcrowd models a flash crowd on the dumbbell: persistent TFRC
// and TCP flows hold the bottleneck while bursty Weibull-interarrival
// TCP mice surge over the forward path and a second mice class loads
// the mirrored reverse chain (ACK-path churn). The Weibull gaps
// (shape < 1) cluster arrivals, so the Palm population exceeds the
// time average — the conservativeness-relevant inspection bias.
func planFlashcrowd(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name:    "flashcrowd",
		Note:    "flash crowd on the dumbbell: bursty TCP mice vs persistent TFRC/TCP",
		Columns: churnColumns,
	}
	cfg := parkingLotBase(sz)
	cfg.MirrorRev = true
	cfg.Seed = 2340
	cfg.ForceEpochs = churnEpochs
	end := cfg.Warmup + cfg.Duration
	cfg.Churn = []arrivals.Spec{
		{
			Name: "mice-fwd", Proto: arrivals.TCP,
			Gap:  arrivals.Gap{Kind: arrivals.Weibull, Shape: 0.55, Scale: 0.02},
			Size: arrivals.Size{Kind: arrivals.Pareto, Shape: 1.3, MinPackets: 4, CapPackets: 200},
			Stop: end, MaxArrivals: 16000, Seed: 7101,
		},
		{
			Name: "mice-rev", Proto: arrivals.TCP, Reverse: true,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 20},
			Size: arrivals.Size{Kind: arrivals.Pareto, Shape: 1.3, MinPackets: 4, CapPackets: 100},
			Stop: end, MaxArrivals: 12000, Seed: 7102,
		},
	}
	cells := []cell[TopoSimConfig]{{name: "flashcrowd", cfg: cfg}}
	return gridPlan(t, cells, func(c cell[TopoSimConfig], res TopoSimResult) [][]float64 {
		return churnRows(res)
	})
}

// planWebmice is the PASTA check on the 8-hop chain: two TCP-mice
// classes with identical Pareto size laws and matched mean arrival
// rates, one Poisson and one heavy-tailed Weibull, churn under a
// persistent TFRC flow. The Poisson class's palm_over_time column
// should sit near 1; the Weibull class's above it.
func planWebmice(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name:    "webmice",
		Note:    "web mice over 8 hops: Poisson vs Weibull session arrivals (PASTA check)",
		Columns: churnColumns,
	}
	cfg := parkingLotBase(sz)
	cfg.Hops = 8
	cfg.NTFRC = 1
	cfg.NTCP = 0
	cfg.Seed = 2440
	cfg.ForceEpochs = churnEpochs
	end := cfg.Warmup + cfg.Duration
	size := arrivals.Size{Kind: arrivals.Pareto, Shape: 1.5, MinPackets: 4, CapPackets: 100}
	// Matched mean interarrival: Weibull(0.6, scale) has mean
	// scale·Γ(1+1/0.6) ≈ 1.505·scale; 1/25 s mean gap needs scale ≈ 0.0266.
	cfg.Churn = []arrivals.Spec{
		{
			Name: "poisson", Proto: arrivals.TCP,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 25},
			Size: size, Stop: end, MaxArrivals: 16000, Seed: 7201,
		},
		{
			Name: "weibull", Proto: arrivals.TCP,
			Gap:  arrivals.Gap{Kind: arrivals.Weibull, Shape: 0.6, Scale: 0.0266},
			Size: size, Stop: end, MaxArrivals: 16000, Seed: 7202,
		},
	}
	cells := []cell[TopoSimConfig]{{name: "webmice", cfg: cfg}}
	return gridPlan(t, cells, func(c cell[TopoSimConfig], res TopoSimResult) [][]float64 {
		return churnRows(res)
	})
}

// planSurge is the scale run: a steady CBR session base load plus a
// mid-run TCP arrival surge on the forward path and a reverse-chain
// surge, together approaching 10^5 arrivals per run at full sizing. The
// surge window deliberately overloads the bottleneck; the peak epoch
// drop rate and the population drain after Stop are the observables.
func planSurge(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name:    "surge",
		Note:    "arrival surge at scale: CBR session base + mid-run TCP surge, fwd and rev",
		Columns: churnColumns,
	}
	cfg := parkingLotBase(sz)
	cfg.MirrorRev = true
	cfg.NTFRC = 1
	cfg.NTCP = 1
	cfg.Seed = 2540
	cfg.ForceEpochs = churnEpochs
	end := cfg.Warmup + cfg.Duration
	surgeStart := cfg.Warmup + 0.25*cfg.Duration
	surgeStop := cfg.Warmup + 0.75*cfg.Duration
	cfg.Churn = []arrivals.Spec{
		{
			Name: "base-cbr", Proto: arrivals.CBR, CBRRate: 100,
			Gap:  arrivals.Gap{Kind: arrivals.Poisson, Rate: 100},
			Size: arrivals.Size{Kind: arrivals.Fixed, Packets: 3},
			Stop: end, MaxArrivals: 40000, Seed: 7301,
		},
		{
			Name: "surge-fwd", Proto: arrivals.TCP,
			Gap:   arrivals.Gap{Kind: arrivals.Poisson, Rate: 300},
			Size:  arrivals.Size{Kind: arrivals.Fixed, Packets: 4},
			Start: surgeStart, Stop: surgeStop, MaxArrivals: 50000, Seed: 7302,
		},
		{
			Name: "surge-rev", Proto: arrivals.TCP, Reverse: true,
			Gap:   arrivals.Gap{Kind: arrivals.Poisson, Rate: 60},
			Size:  arrivals.Size{Kind: arrivals.Fixed, Packets: 4},
			Start: surgeStart, Stop: surgeStop, MaxArrivals: 12000, Seed: 7303,
		},
	}
	cells := []cell[TopoSimConfig]{{name: "surge", cfg: cfg}}
	return gridPlan(t, cells, func(c cell[TopoSimConfig], res TopoSimResult) [][]float64 {
		return churnRows(res)
	})
}

func init() {
	register(&Scenario{Name: "flashcrowd",
		Note:    "flash-crowd churn on the dumbbell: bursty mice vs persistent flows",
		Plan:    planFlashcrowd,
		Sharded: true})
	register(&Scenario{Name: "webmice",
		Note:    "Poisson vs Weibull web-mice churn over 8 hops (PASTA check)",
		Plan:    planWebmice,
		Sharded: true})
	register(&Scenario{Name: "surge",
		Note:    "arrival surge at 100K-flow scale with reverse-path churn",
		Plan:    planSurge,
		Sharded: true})
}

// Flashcrowd, Webmice and Surge are the serial convenience wrappers of
// the churn scenario family.
func Flashcrowd(sz Sizing) *Table { return runPlan(planFlashcrowd, sz)[0] }

// Webmice reproduces the PASTA web-mice comparison.
func Webmice(sz Sizing) *Table { return runPlan(planWebmice, sz)[0] }

// Surge reproduces the arrival-surge scale run.
func Surge(sz Sizing) *Table { return runPlan(planSurge, sz)[0] }
