package estimator

import "repro/internal/checkpoint"

// Checkpoint walks the observed interval history through c. The weight
// vector is configuration and comes from the rebuild, so a restore
// refuses a history longer than its window.
func (e *LossIntervalEstimator) Checkpoint(c checkpoint.Codec) {
	n := c.Len(len(e.history))
	if n > len(e.weights) {
		c.Fail("loss-interval history of %d exceeds window %d", n, len(e.weights))
		return
	}
	e.history = checkpoint.Resize(e.history, n)
	for i := range e.history {
		c.F64(&e.history[i])
	}
}

// Checkpoint walks the smoothed value and readiness through c. The
// smoothing constant is configuration and comes from the rebuild.
func (rt *RTT) Checkpoint(c checkpoint.Codec) {
	c.F64(&rt.value)
	c.Bool(&rt.ready)
}
