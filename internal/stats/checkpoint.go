package stats

import "repro/internal/checkpoint"

// Checkpoint walks the accumulator's running state through c.
func (w *Welford) Checkpoint(c checkpoint.Codec) {
	c.Int(&w.n)
	c.F64(&w.mean)
	c.F64(&w.m2)
}
