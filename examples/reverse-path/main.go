// reverse-path: route the feedback channel through a real congested
// queue — the regime the paper's conservativeness analysis assumes
// away — and watch what imperfect feedback does to the control loop.
//
// A TFRC flow and a TCP flow send data over a 10 Mb/s forward
// bottleneck, but their receiver reports and ACKs return over a routed
// reverse link at 1/20 of the forward capacity, shared with
// unresponsive heavy-tailed cross traffic. Feedback packets queue
// behind kilobyte bursts, arrive compressed, and drop when the reverse
// buffer overflows; TFRC falls back to its no-feedback timer, TCP's
// ack clock goes lumpy. The same experiment with the reverse path
// uncongested (the dumbbell default) runs first as the control.
//
// Run: go run ./examples/reverse-path
package main

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/formula"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/tfrc"
	"repro/internal/topology"
)

const (
	capacity = 1.25e6 // 10 Mb/s forward
	revRatio = 20.0   // reverse path at capacity/revRatio
	warmup   = 50.0
	measured = 300.0
)

// runOnce builds the two-node graph, optionally narrowing and loading
// the reverse path, and returns the measured stats.
func runOnce(congested bool) (tfrc.Stats, tcp.Stats, float64, float64) {
	var sched des.Scheduler
	net := topology.New(&sched)
	src := net.AddNode("src")
	dst := net.AddNode("dst")
	fwd := net.AddLink(src, dst, capacity, 0.01, netsim.NewDropTail(64))

	revCap := capacity
	if congested {
		revCap = capacity / revRatio
	}
	rev := net.AddLink(dst, src, revCap, 0.005, netsim.NewDropTail(64))
	net.SetDefaultRoute(fwd)
	net.SetDefaultReverseRoute(rev)
	net.SetReverseJitter(0.2, 7)

	tfrcSnd, _ := tfrc.NewFlow(&sched, net, 0, tfrc.DefaultConfig(), 0.005, 0.02)
	tcpSnd, _ := tcp.NewFlow(&sched, net, 1, tcp.DefaultConfig(), 0.005, 0.02)
	tfrcSnd.Start()
	sched.At(0.21, tcpSnd.Start)

	if congested {
		// Saturate the reverse bottleneck with on/off cross traffic
		// offering ~90% of its capacity.
		net.AttachSink(2, rev)
		const meanBurst, pktSize = 20.0, 1000.0
		target := 0.9 * revCap
		meanOff := meanBurst*pktSize/target - meanBurst*pktSize/revCap
		ct := netsim.NewCrossTraffic(&sched, net, 2, revCap, meanBurst, 1.5,
			meanOff, int(pktSize), 11)
		sched.At(0.4, ct.Start)
	}

	sched.RunUntil(warmup)
	tfrcSnd.ResetStats()
	tcpSnd.ResetStats()
	sched.RunUntil(warmup + measured)

	q := net.Link(rev).Queue().(*netsim.DropTail)
	offered := float64(q.Drops + net.Link(rev).Forwarded())
	dropRate := 0.0
	if offered > 0 {
		dropRate = float64(q.Drops) / offered
	}
	if err := net.CheckLeaks(); err != nil {
		panic(err)
	}
	return tfrcSnd.Stats(), tcpSnd.Stats(), dropRate, net.BaseRTT(0)
}

func report(label string, tf tfrc.Stats, tc tcp.Stats, dropRate, baseRTT float64) {
	fmt.Printf("%s (base RTT %.0f ms, reverse drop rate %.2f%%)\n",
		label, baseRTT*1000, dropRate*100)
	fmt.Printf("  TFRC: x̄ = %7.1f pkt/s   p = %.5f   r = %5.1f ms   reports rcvd = %d   nf halvings = %d\n",
		tf.Throughput, tf.LossEventRate, tf.MeanRTT*1000, tf.FeedbackReceived, tf.NoFeedbackHalvings)
	fmt.Printf("  TCP:  x̄'= %7.1f pkt/s   p'= %.5f   r'= %5.1f ms   acks/pkt = %.3f\n",
		tc.Throughput, tc.LossEventRate, tc.MeanRTT*1000,
		float64(tc.AcksReceived)/float64(max(tc.PacketsSent, 1)))
	if tf.LossEventRate > 0 && tf.MeanRTT > 0 {
		f := formula.NewPFTKStandard(formula.ParamsForRTT(tf.MeanRTT))
		fmt.Printf("  conservativeness: x̄/f(p,r) = %.3f\n", tf.Throughput/f.Rate(tf.LossEventRate))
	}
	fmt.Println()
}

func main() {
	fmt.Printf("routed reverse path: TFRC + TCP forward at 10 Mb/s, feedback/acks through a real queue\n\n")
	tf, tc, drop, rtt := runOnce(false)
	report("control: uncongested reverse link", tf, tc, drop, rtt)
	tf, tc, drop, rtt = runOnce(true)
	report(fmt.Sprintf("congested reverse link (1/%.0f capacity + 90%% cross load)", revRatio), tf, tc, drop, rtt)
	fmt.Println("The forward path never changed — every difference above is feedback-path damage.")
}
