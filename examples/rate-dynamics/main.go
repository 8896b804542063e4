// rate-dynamics: trace the send-rate trajectories of one TFRC and one
// TCP flow sharing a DropTail bottleneck, sampled every 100 ms, printed
// as TSV (plot with any tool). TFRC's trace is visibly smoother — the
// property the paper ties to its loss-event sampling behavior (Claim 3:
// smoother senders sample the congestion process less favorably).
//
// Run: go run ./examples/rate-dynamics > trace.tsv
package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

func main() {
	var sched des.Scheduler
	link := netsim.NewLink(&sched, 1.25e6, 0.01, netsim.NewDropTail(80))
	net := topology.NewDumbbell(&sched, link)
	net.SetReverseJitter(0.2, 7)

	tsnd, _ := tfrc.NewFlow(&sched, net, 1, tfrc.DefaultConfig(), 0, 0.03)
	csnd, _ := tcp.NewFlow(&sched, net, 2, tcp.DefaultConfig(), 0, 0.03)
	tsnd.Start()
	sched.At(0.5, csnd.Start)

	const warmup, horizon = 20.0, 120.0
	fmt.Println("time\ttfrc_pkts_per_s\ttcp_cwnd_pkts\tqueue_pkts")
	// area integrates the TFRC rate over [warmup, horizon], each sample
	// held until the next one, for the mean reported at the end.
	var area, lastT, lastRate float64
	hold := func(until float64) {
		if lo, hi := math.Max(lastT, warmup), math.Min(until, horizon); hi > lo {
			area += lastRate * (hi - lo)
		}
	}
	var sample func()
	sample = func() {
		now := sched.Now()
		rate := tsnd.Rate() / 1000 // 1000-byte packets
		fmt.Printf("%.6g\t%.6g\t%.6g\t%d\n", now, rate, csnd.Cwnd(), link.Queue().Len())
		hold(now)
		lastT, lastRate = now, rate
		if now < horizon {
			sched.After(0.1, sample)
		}
	}
	sched.After(0.1, sample)
	sched.RunUntil(horizon)
	hold(horizon)

	fmt.Fprintf(os.Stderr, "TFRC mean rate %.1f pkt/s over [%g, %g] s; trace written to stdout\n",
		area/(horizon-warmup), warmup, horizon)
}
