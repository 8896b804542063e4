package rng

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/checkpoint"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(7)
	b := a.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split stream equals parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestExpMeanAndVariance(t *testing.T) {
	r := New(5)
	const n = 200000
	rate := 2.5
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Exp(rate)
		if x < 0 {
			t.Fatalf("negative exponential sample %v", x)
		}
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exp mean = %v, want %v", mean, 1/rate)
	}
	if math.Abs(variance-1/(rate*rate)) > 0.01 {
		t.Fatalf("exp variance = %v, want %v", variance, 1/(rate*rate))
	}
}

func TestShiftedExpMean(t *testing.T) {
	r := New(9)
	const n = 100000
	x0, rate := 3.0, 0.5
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ShiftedExp(x0, rate)
		if v < x0 {
			t.Fatalf("shifted exp below shift: %v < %v", v, x0)
		}
		sum += v
	}
	want := x0 + 1/rate
	if got := sum / n; math.Abs(got-want) > 0.05 {
		t.Fatalf("shifted exp mean = %v, want %v", got, want)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(13)
	for _, p := range []float64{0.01, 0.1, 0.5, 1} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			k := r.Geometric(p)
			if k < 1 {
				t.Fatalf("geometric sample %d < 1", k)
			}
			sum += float64(k)
		}
		mean := sum / n
		want := 1 / p
		if math.Abs(mean-want)/want > 0.03 {
			t.Fatalf("geometric(p=%v) mean = %v, want %v", p, mean, want)
		}
	}
}

func TestParetoSupport(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1.5, 2.0)
		if v < 2.0 {
			t.Fatalf("Pareto sample %v below scale", v)
		}
	}
}

func TestParetoMean(t *testing.T) {
	r := New(19)
	shape, scale := 3.0, 1.0
	const n = 300000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Pareto(shape, scale)
	}
	want := shape * scale / (shape - 1)
	if got := sum / n; math.Abs(got-want)/want > 0.03 {
		t.Fatalf("Pareto mean = %v, want %v", got, want)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(23)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(29)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestIntnRange(t *testing.T) {
	r := New(37)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestPanics(t *testing.T) {
	r := New(1)
	cases := []func(){
		func() { r.Intn(0) },
		func() { r.Exp(0) },
		func() { r.Exp(-1) },
		func() { r.Geometric(0) },
		func() { r.Geometric(1.5) },
		func() { r.Pareto(0, 1) },
		func() { r.Pareto(1, 0) },
		func() { r.ShiftedExp(-1, 1) },
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

// Property: Geometric samples are always >= 1 and ShiftedExp >= shift.
func TestQuickSampleSupport(t *testing.T) {
	r := New(101)
	f := func(seed uint16) bool {
		p := 0.001 + float64(seed%999)/1000.0 // in (0,1)
		if r.Geometric(p) < 1 {
			return false
		}
		x0 := float64(seed % 50)
		return r.ShiftedExp(x0, 1.0) >= x0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: same seed, same first value, for arbitrary seeds.
func TestQuickSeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		return New(seed).Uint64() == New(seed).Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(1)
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(12345)
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	saved := r.State()
	want := make([]uint64, 32)
	for i := range want {
		want[i] = r.Uint64()
	}
	// Restore into a generator with a completely different history.
	other := New(999)
	other.Float64()
	other.SetState(saved)
	for i, w := range want {
		if got := other.Uint64(); got != w {
			t.Fatalf("draw %d after SetState = %#x, want %#x", i, got, w)
		}
	}
}

func TestSetStateRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetState accepted the all-zero state")
		}
	}()
	New(1).SetState([4]uint64{})
}

// Checkpoint round-trips the stream, and a restore whose read fails
// leaves the generator's state as it was.
func TestCheckpointSetsStateOnlyFromErrorFreeRead(t *testing.T) {
	src := New(5)
	src.Uint64()
	var w checkpoint.Writer
	src.Checkpoint(w.Codec())

	dst := New(6)
	r := checkpoint.NewReader(w.Bytes())
	dst.Checkpoint(r.Codec())
	if r.Err() != nil || dst.State() != src.State() {
		t.Fatalf("restore: err %v, state %x, saved %x", r.Err(), dst.State(), src.State())
	}

	kept := New(7)
	before := kept.State()
	r = checkpoint.NewReader(w.Bytes()[:3*8+4])
	kept.Checkpoint(r.Codec())
	if r.Err() == nil || kept.State() != before {
		t.Fatalf("truncated restore: err %v, state %x, want %x kept", r.Err(), kept.State(), before)
	}
}
