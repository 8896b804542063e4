// Package rng provides a deterministic, seedable random number generator
// and the sampling distributions used throughout the reproduction.
//
// Every experiment in this repository is driven by an explicit seed so
// that results are reproducible bit-for-bit. The generator is
// xoshiro256** seeded through splitmix64, which gives high-quality
// streams from arbitrary 64-bit seeds and allows cheap independent
// sub-streams (see New and Split).
package rng

import (
	"math"

	"repro/internal/checkpoint"
)

// RNG is a xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct with New.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances a splitmix64 state and returns the next value.
// It is used only for seeding so that closely related seeds still
// produce unrelated xoshiro states.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not be seeded with the all-zero state; splitmix64
	// cannot produce four consecutive zeros, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Reseed reinitializes the generator in place, exactly as New(seed)
// would, without allocating. Pooled model components (the churn engine's
// recycled endpoints, per-flow jitter streams) reseed their embedded
// generators through this instead of constructing fresh ones.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// State returns the generator's four state words, for checkpointing.
// Restoring them with SetState reproduces the stream exactly.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator state with words previously
// captured by State. It panics on the all-zero state, which xoshiro
// cannot occupy and which State can therefore never return.
func (r *RNG) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		panic("rng: SetState with all-zero state")
	}
	r.s = s
}

// Checkpoint walks the generator's state through c: a save writes it,
// and a restore sets it only from an error-free read.
func (r *RNG) Checkpoint(c checkpoint.Codec) {
	s := r.s
	for i := range s {
		c.U64(&s[i])
	}
	if !c.Saving() && c.Err() == nil {
		r.SetState(s)
	}
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's future output, which makes it convenient to hand
// sub-streams to concurrently constructed model components.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed sample with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	// Use 1-U so the argument of Log is in (0,1]; Float64 may return 0.
	return -math.Log(1-r.Float64()) / rate
}

// ShiftedExp returns x0 + Exp(rate): a shifted exponential sample with
// mean x0 + 1/rate and standard deviation 1/rate. The paper's numerical
// experiments (Figs 3-4) use this family because it lets the mean and the
// coefficient of variation be fixed independently.
func (r *RNG) ShiftedExp(x0, rate float64) float64 {
	if x0 < 0 {
		panic("rng: ShiftedExp with negative shift")
	}
	return x0 + r.Exp(rate)
}

// Geometric returns a geometrically distributed sample on {1, 2, ...}
// with success probability p: the number of Bernoulli(p) trials up to and
// including the first success. Its mean is 1/p, matching the loss-event
// interval of a Bernoulli packet dropper. It panics unless 0 < p <= 1.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric with p outside (0,1]")
	}
	if p == 1 {
		return 1
	}
	u := 1 - r.Float64() // in (0,1]
	return 1 + int(math.Floor(math.Log(u)/math.Log(1-p)))
}

// Pareto returns a Pareto(shape, scale) sample with support [scale, inf).
// Used for heavy-tailed background-traffic burst sizes in WAN profiles.
func (r *RNG) Pareto(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Pareto with non-positive parameter")
	}
	u := 1 - r.Float64()
	return scale / math.Pow(u, 1/shape)
}

// Weibull returns a Weibull(shape, scale) sample by inversion:
// scale * (-ln(1-U))^(1/shape). Shape 1 recovers the exponential with
// mean equal to scale; shape < 1 gives the heavy-tailed, bursty
// interarrival processes of measured web sessions (flash crowds).
func (r *RNG) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull with non-positive parameter")
	}
	u := 1 - r.Float64()
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Norm returns a standard normal sample (Box-Muller, polar form avoided
// for simplicity; two uniforms per call).
func (r *RNG) Norm() float64 {
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
