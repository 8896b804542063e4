package experiments

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/topology"
)

// The fault scenario family probes TFRC's behavior under deterministic
// adversity — the regimes the paper's steady-state analysis assumes
// away: a bottleneck that goes dark mid-run (linkflap), a link whose
// loss arrives in bursts instead of Bernoulli singles (burstloss), and
// a reverse path renegotiated to a trickle so feedback starves
// (capdrop). Each variant runs on the dumbbell (hops=1) and on the
// scale-out chain (hops=8), and each is registered Sharded: the fault
// plans arm identically on the serial and space-parallel engines, so
// the tables are byte-identical at any shard count.

// faultBase is the shared chain sizing of the fault family: the
// parking-lot hop parameters with a larger flow population, scaled up
// when the chain is long enough to shard meaningfully.
func faultBase(sz Sizing, hops int) TopoSimConfig {
	cfg := TopoSimConfig{
		Hops:          hops,
		Capacity:      1.25e6,
		Buffer:        64,
		HopDelay:      0.01,
		AccessDelay:   0.005,
		RevDelay:      0.025,
		NTFRC:         4,
		NTCP:          4,
		CrossPerHop:   0,
		CrossRevDelay: 0.02,
		L:             8,
		Comprehensive: true,
		Duration:      60,
		Warmup:        10,
		RevJitter:     0.2,
	}
	if hops > 1 {
		cfg.Capacity = 2.5e6
		cfg.NTFRC, cfg.NTCP = 8, 8
		cfg.CrossPerHop = 1
	}
	if sz.SimFactor > 0 && sz.SimFactor < 1 {
		cfg.Duration *= sz.SimFactor
		cfg.Warmup *= sz.SimFactor
	}
	cfg.Shards = sz.Shards
	return cfg
}

// tfrcHalvings totals the no-feedback halvings over the long TFRC flows.
func tfrcHalvings(res TopoSimResult) float64 {
	var n int64
	for _, st := range res.TFRCPerFlow {
		n += st.NoFeedbackHalvings
	}
	return float64(n)
}

// tfrcMinRate is the deepest backoff over the long TFRC flows, bytes/s.
func tfrcMinRate(res TopoSimResult) float64 {
	min := math.Inf(1)
	for _, st := range res.TFRCPerFlow {
		if st.MinRate < min {
			min = st.MinRate
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// worstRecovery is the population recovery time: the slowest flow's
// seconds from the Up edge back to its pre-outage rate threshold, or -1
// when any flow never recovered before the run ended.
func worstRecovery(res TopoSimResult) float64 {
	worst := 0.0
	for _, r := range res.Recovery {
		if r < 0 {
			return -1
		}
		if r > worst {
			worst = r
		}
	}
	return worst
}

// planLinkFlap takes the mid-chain bottleneck down for a tenth of the
// run and back up, under both down-queue policies: conservativeness
// through the outage, the depth of the no-feedback backoff, and how
// long the population needs to regain its rate after the link returns.
func planLinkFlap(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name: "linkflap",
		Note: "mid-run bottleneck outage/recovery: TFRC backoff depth and recovery time",
		Columns: []string{"hops", "flush", "outage_s", "x_tfrc", "norm",
			"halvings", "min_rate", "recovery_s"},
	}
	var cells []cell[TopoSimConfig]
	seed := uint64(7040)
	for _, hops := range []int{1, 8} {
		for _, pol := range []fault.Policy{fault.Drain, fault.Flush} {
			seed++
			cfg := faultBase(sz, hops)
			cfg.Seed = seed
			down := cfg.Warmup + 0.35*cfg.Duration
			up := down + 0.10*cfg.Duration
			link := topology.LinkID(hops / 2)
			cfg.Faults = (&fault.Plan{Seed: seed}).Flap(link, down, up, pol)
			cfg.Watch = &RecoveryWatch{Down: down, Up: up, Frac: 0.5,
				Interval: cfg.Duration / 400}
			flush := 0.0
			if pol == fault.Flush {
				flush = 1
			}
			cells = append(cells, cell[TopoSimConfig]{
				name: fmt.Sprintf("linkflap hops=%d policy=%s", hops, pol),
				cfg:  cfg,
				meta: []float64{float64(hops), flush, up - down},
			})
		}
	}
	return gridPlan(t, cells, func(c cell[TopoSimConfig], res TopoSimResult) [][]float64 {
		return [][]float64{c.row(res.TFRC.Throughput, pftkNorm(res.TFRC), tfrcHalvings(res),
			tfrcMinRate(res), worstRecovery(res))}
	})
}

// planBurstLoss puts a Gilbert–Elliott loss process on the first
// bottleneck: the observed fault-loss rate against the process's
// analytic stationary loss (the in-sim check of the fault package's
// property tests), and TFRC's throughput and conservativeness under
// correlated loss the loss-interval estimator was designed around.
func planBurstLoss(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name: "burstloss",
		Note: "Gilbert–Elliott bursty loss on the bottleneck: observed vs stationary loss, TFRC response",
		Columns: []string{"hops", "pi_loss", "obs_loss", "p_tfrc",
			"x_tfrc", "norm", "halvings"},
	}
	type geParams struct{ meanGood, meanBad, lossBad float64 }
	var cells []cell[TopoSimConfig]
	seed := uint64(7140)
	for _, hops := range []int{1, 8} {
		for _, g := range []geParams{
			{meanGood: 400, meanBad: 25, lossBad: 0.6},
			{meanGood: 150, meanBad: 50, lossBad: 0.9},
		} {
			seed++
			cfg := faultBase(sz, hops)
			cfg.Seed = seed
			cfg.Faults = (&fault.Plan{Seed: seed}).Burst(0, g.meanGood, g.meanBad, g.lossBad)
			pi := cfg.Faults.Losses[0].StationaryLoss()
			cells = append(cells, cell[TopoSimConfig]{
				name: fmt.Sprintf("burstloss hops=%d pi=%.4f", hops, pi),
				cfg:  cfg,
				meta: []float64{float64(hops), pi},
			})
		}
	}
	return gridPlan(t, cells, func(c cell[TopoSimConfig], res TopoSimResult) [][]float64 {
		obs := 0.0
		if res.FaultOffered > 0 {
			obs = float64(res.FaultDrops) / float64(res.FaultOffered)
		}
		return [][]float64{c.row(obs, res.TFRC.LossEventRate, res.TFRC.Throughput,
			pftkNorm(res.TFRC), tfrcHalvings(res))}
	})
}

// planCapDrop renegotiates the first mirrored reverse link down to a
// trickle mid-run and back: feedback and ACKs starve behind an
// Unbounded queue (its high-water mark is the backlog depth), the TFRC
// senders halve through their no-feedback timers, and the recovery
// column measures the restart once capacity returns.
func planCapDrop(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name: "capdrop",
		Note: "reverse-capacity renegotiation: feedback starvation depth and recovery",
		Columns: []string{"hops", "factor", "x_tfrc", "halvings",
			"min_rate", "recovery_s", "rev_highwater"},
	}
	var cells []cell[TopoSimConfig]
	seed := uint64(7240)
	for _, hops := range []int{1, 8} {
		for _, factor := range []float64{0.02, 0.005} {
			seed++
			cfg := faultBase(sz, hops)
			cfg.Seed = seed
			cfg.MirrorRev = true
			from := cfg.Warmup + 0.30*cfg.Duration
			until := cfg.Warmup + 0.55*cfg.Duration
			rev := topology.LinkID(hops) // first link of the mirrored chain
			cfg.Faults = (&fault.Plan{Seed: seed}).Squeeze(rev, from, until,
				factor*cfg.Capacity, cfg.Capacity)
			cfg.Watch = &RecoveryWatch{Down: from, Up: until, Frac: 0.5,
				Interval: cfg.Duration / 400}
			cells = append(cells, cell[TopoSimConfig]{
				name: fmt.Sprintf("capdrop hops=%d factor=%g", hops, factor),
				cfg:  cfg,
				meta: []float64{float64(hops), factor},
			})
		}
	}
	return gridPlan(t, cells, func(c cell[TopoSimConfig], res TopoSimResult) [][]float64 {
		return [][]float64{c.row(res.TFRC.Throughput, tfrcHalvings(res), tfrcMinRate(res),
			worstRecovery(res), float64(res.UnboundedHighWater))}
	})
}

func init() {
	register(&Scenario{Name: "linkflap",
		Note:    "fault injection: mid-run bottleneck outage under drain/flush policies",
		Plan:    planLinkFlap,
		Sharded: true})
	register(&Scenario{Name: "burstloss",
		Note:    "fault injection: Gilbert–Elliott bursty loss on the bottleneck",
		Plan:    planBurstLoss,
		Sharded: true})
	register(&Scenario{Name: "capdrop",
		Note:    "fault injection: reverse-capacity renegotiation starving feedback",
		Plan:    planCapDrop,
		Sharded: true})
}
