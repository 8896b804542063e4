// tfrc-vs-tcp: packet-level dumbbell experiment comparing TFRC and TCP,
// printing the paper's four-way TCP-friendliness breakdown
// (Section IV / Figures 12-15):
//
//	x̄/f(p,r)   conservativeness of TFRC
//	p'/p        TCP's vs TFRC's loss-event rate
//	r'/r        TCP's vs TFRC's mean RTT
//	x̄'/f(p',r') TCP's obedience to its own formula
//
// plus TFRC's normalized covariance cov[θ,θ̂]p², the quantity condition
// (C1) of Claim 1 asks to be near zero.
//
// Run: go run ./examples/tfrc-vs-tcp [-pairs N] [-seconds S]
package main

import (
	"flag"
	"fmt"
	"math"

	"repro/internal/experiments"
	"repro/internal/formula"
)

func main() {
	pairs := flag.Int("pairs", 1, "number of TFRC and of TCP connections")
	seconds := flag.Float64("seconds", 300, "measured simulation seconds")
	flag.Parse()

	pr := experiments.NS2Profile()
	pr.Duration = *seconds
	cfg := pr.Config(*pairs, 8, 2024)
	res := experiments.RunSim(cfg)

	tf, tc := res.TFRC, res.TCP
	ftf := formula.NewPFTKStandard(formula.ParamsForRTT(tf.MeanRTT))
	ftc := formula.NewPFTKStandard(formula.ParamsForRTT(tc.MeanRTT))

	fmt.Printf("dumbbell: 15 Mb/s RED bottleneck, %d TFRC + %d TCP, %.0f s\n\n",
		*pairs, *pairs, *seconds)
	fmt.Printf("TFRC: x̄ = %7.1f pkt/s   p = %.5f   r = %.1f ms   (%d loss events)\n",
		tf.Throughput, tf.LossEventRate, tf.MeanRTT*1000, tf.Events)
	fmt.Printf("TCP:  x̄'= %7.1f pkt/s   p'= %.5f   r'= %.1f ms   (%d loss events)\n\n",
		tc.Throughput, tc.LossEventRate, tc.MeanRTT*1000, tc.Events)

	fmt.Println("TCP-friendliness breakdown (values near 1 are neutral):")
	fmt.Printf("  throughput ratio x̄/x̄'  = %.3f\n", tf.Throughput/tc.Throughput)
	fmt.Printf("  (1) x̄ /f(p, r)  [TFRC conservativeness]   = %.3f\n",
		tf.Throughput/ftf.Rate(math.Max(tf.LossEventRate, 1e-9)))
	fmt.Printf("  (2) p'/p         [loss-event rates]        = %.3f\n",
		tc.LossEventRate/tf.LossEventRate)
	fmt.Printf("  (3) r'/r         [round-trip times]        = %.3f\n",
		tc.MeanRTT/tf.MeanRTT)
	fmt.Printf("  (4) x̄'/f(p',r') [TCP obeys its formula]   = %.3f\n",
		tc.Throughput/ftc.Rate(math.Max(tc.LossEventRate, 1e-9)))
	fmt.Printf("  cov[θ,θ̂]p²       [condition (C1), near 0]  = %+.4f\n", tf.CovNorm)
	fmt.Println()
	fmt.Println("With few connections, (2) p'/p > 1 and (4) < 1 are the paper's")
	fmt.Println("two causes of TFRC's non-TCP-friendliness at small p.")
}
