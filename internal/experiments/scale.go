package experiments

import (
	"fmt"

	"repro/internal/runner"
)

// scaleChainBase is the shared sizing of the scale-out scenario family:
// a many-hop chain of 5 ms bottleneck hops whose per-hop capacity grows
// with the flow population (19.5 kB/s per long flow, the share a
// 64-flow population has of a 10 Mb/s hop), so adding flows scales the
// event rate instead of starving every flow. Runs are shorter than the
// dumbbell sweeps — the population, not the horizon, is the point.
func scaleChainBase(sz Sizing) TopoSimConfig {
	cfg := TopoSimConfig{
		Hops:          8,
		Capacity:      1.25e6,
		Buffer:        64,
		HopDelay:      0.005,
		AccessDelay:   0.005,
		RevDelay:      0.03,
		NTFRC:         32,
		NTCP:          32,
		CrossPerHop:   2,
		CrossRevDelay: 0.02,
		L:             8,
		Comprehensive: true,
		Duration:      60,
		Warmup:        10,
		RevJitter:     0.2,
	}
	if sz.SimFactor > 0 && sz.SimFactor < 1 {
		cfg.Duration *= sz.SimFactor
		cfg.Warmup *= sz.SimFactor
	}
	cfg.Shards = sz.Shards
	return cfg
}

// planScaleChain is the scale-out sweep the ROADMAP's many-hop item
// calls for: 8/12/16-hop chains under 64-512 long TFRC+TCP flows with
// crossing TCP per hop — the regime where the pending-event set grows
// into the thousands and event scheduling, not protocol logic, decides
// simulated scale. The physical columns check that TFRC stays
// TCP-friendly as hops and population grow; the events column records
// the discrete-event load the run put on the scheduler (deterministic,
// like everything else in the row).
func planScaleChain(sz Sizing) ([]runner.Job, FoldFunc) {
	t := &Table{
		Name: "scalechain",
		Note: "scale-out chains: 64-512 long TFRC/TCP flows over 8-16 bottleneck hops",
		Columns: []string{"hops", "flows", "p_tfrc", "p_tcp",
			"x_tfrc", "x_tcp", "ratio", "x_cross", "events"},
	}
	var cells []cell[TopoSimConfig]
	seed := uint64(4040)
	for _, hops := range []int{8, 12, 16} {
		for _, flows := range []int{64, 256, 512} {
			seed++
			cfg := scaleChainBase(sz)
			cfg.Hops = hops
			cfg.NTFRC = flows / 2
			cfg.NTCP = flows - flows/2
			// Per-hop capacity tracks the population so each long flow
			// keeps the same nominal share at every sweep point.
			cfg.Capacity *= float64(flows) / 64
			cfg.Seed = seed
			cells = append(cells, cell[TopoSimConfig]{
				name: fmt.Sprintf("scalechain hops=%d flows=%d", hops, flows),
				cfg:  cfg, meta: []float64{float64(hops), float64(flows)},
			})
		}
	}
	return gridPlan(t, cells, func(c cell[TopoSimConfig], res TopoSimResult) [][]float64 {
		if res.TCP.Throughput <= 0 {
			return nil
		}
		return [][]float64{c.row(res.TFRC.LossEventRate, res.TCP.LossEventRate,
			res.TFRC.Throughput, res.TCP.Throughput,
			res.TFRC.Throughput/res.TCP.Throughput,
			res.Cross.Throughput, float64(res.EventsFired))}
	})
}

func init() {
	register(&Scenario{Name: "scalechain",
		Note:    "scale-out chains: 8-16 hops under 64-512 long flows plus per-hop cross traffic",
		Plan:    planScaleChain,
		Sharded: true})
}
