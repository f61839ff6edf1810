package resources

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndComponents(t *testing.T) {
	v := New(1, 2, 3, 4)
	if v[CPU] != 1 || v[GPU] != 2 || v[GPUMem] != 3 || v[Mem] != 4 {
		t.Fatalf("component order wrong: %v", v)
	}
}

func TestDimString(t *testing.T) {
	cases := map[Dim]string{CPU: "cpu", GPU: "gpu", GPUMem: "gpumem", Mem: "mem"}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("Dim(%d).String() = %q, want %q", d, got, want)
		}
	}
	if got := Dim(99).String(); got != "dim(99)" {
		t.Errorf("out-of-range Dim string = %q", got)
	}
}

func TestAddSub(t *testing.T) {
	v := New(10, 20, 30, 40)
	w := New(1, 2, 3, 4)
	if got := v.Add(w); got != New(11, 22, 33, 44) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != New(9, 18, 27, 36) {
		t.Errorf("Sub = %v", got)
	}
}

func TestScale(t *testing.T) {
	v := New(2, 4, 6, 8)
	if got := v.Scale(0.5); got != New(1, 2, 3, 4) {
		t.Errorf("Scale = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	v := New(1, 9, 3, 7)
	w := New(5, 2, 8, 4)
	if got := v.Min(w); got != New(1, 2, 3, 4) {
		t.Errorf("Min = %v", got)
	}
	if got := v.Max(w); got != New(5, 9, 8, 7) {
		t.Errorf("Max = %v", got)
	}
}

func TestClamp(t *testing.T) {
	v := New(-5, 50, 150, 100)
	if got := v.Clamp(0, 100); got != New(0, 50, 100, 100) {
		t.Errorf("Clamp = %v", got)
	}
	if got := New(-1, 0, 1, -2).ClampNonNegative(); got != New(0, 0, 1, 0) {
		t.Errorf("ClampNonNegative = %v", got)
	}
}

func TestFits(t *testing.T) {
	cap := Uniform(100)
	if !New(100, 100, 100, 100).Fits(cap) {
		t.Error("boundary vector should fit")
	}
	if New(100.0001, 0, 0, 0).Fits(cap) {
		t.Error("over-capacity vector should not fit")
	}
	if !New(94, 0, 0, 0).FitsWithin(cap, 5) {
		t.Error("94 should fit within 100 with slack 5")
	}
	if New(96, 0, 0, 0).FitsWithin(cap, 5) {
		t.Error("96 should not fit within 100 with slack 5")
	}
}

// TestMinMaxClampMatchMath pins the compare-select Min/Max/Clamp/
// ClampNonNegative to math.Min/math.Max, bit for bit, on every pair of finite
// and infinite operands that are not a (-0, +0) pair, and records the only two
// divergences: a zero pair keeps the receiver's sign (math prefers -0 for Min
// and +0 for Max), and a NaN in the argument is ignored where math propagates
// it. The simulator produces neither input.
func TestMinMaxClampMatchMath(t *testing.T) {
	inf := math.Inf(1)
	vals := []float64{
		-inf, -math.MaxFloat64, -150, -1, -math.SmallestNonzeroFloat64, 0,
		math.SmallestNonzeroFloat64, 1e-9, 0.35, 1, 94.99999999999999, 95, 100,
		100.00000000000001, 150, math.MaxFloat64, inf,
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, a := range vals {
		for _, b := range vals {
			if got, want := Uniform(a).Min(Uniform(b))[0], math.Min(a, b); !same(got, want) {
				t.Errorf("Min(%v, %v) = %v, math.Min = %v", a, b, got, want)
			}
			if got, want := Uniform(a).Max(Uniform(b))[0], math.Max(a, b); !same(got, want) {
				t.Errorf("Max(%v, %v) = %v, math.Max = %v", a, b, got, want)
			}
		}
		if got, want := Uniform(a).ClampNonNegative()[0], math.Max(a, 0); !same(got, want) {
			t.Errorf("ClampNonNegative(%v) = %v, math.Max(., 0) = %v", a, got, want)
		}
		for _, r := range [][2]float64{{0, 100}, {-1, 1}, {95, 95}, {-inf, inf}} {
			if got, want := Uniform(a).Clamp(r[0], r[1])[0], math.Max(r[0], math.Min(r[1], a)); !same(got, want) {
				t.Errorf("Clamp(%v; %v, %v) = %v, math = %v", a, r[0], r[1], got, want)
			}
		}
	}

	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	divergences := []struct {
		name      string
		got, math float64
	}{
		{"Min(+0, -0)", Uniform(0).Min(Uniform(negZero))[0], math.Min(0, negZero)},
		{"Max(-0, +0)", Uniform(negZero).Max(Uniform(0))[0], math.Max(negZero, 0)},
		{"ClampNonNegative(-0)", Uniform(negZero).ClampNonNegative()[0], math.Max(negZero, 0)},
		{"Clamp(-0; 0, 100)", Uniform(negZero).Clamp(0, 100)[0], math.Max(0, math.Min(100, negZero))},
		{"Min(1, NaN)", Uniform(1).Min(Uniform(nan))[0], math.Min(1, nan)},
		{"Max(1, NaN)", Uniform(1).Max(Uniform(nan))[0], math.Max(1, nan)},
	}
	for _, c := range divergences {
		if same(c.got, c.math) {
			t.Errorf("%s = %v now matches math; update the divergence list in vector.go", c.name, c.got)
		}
		if c.got != 0 && c.got != 1 {
			t.Errorf("%s = %v, want the receiver's component kept", c.name, c.got)
		}
	}
	// A NaN in the receiver survives every operation, as in math.
	for name, got := range map[string]float64{
		"Min":              Uniform(nan).Min(Uniform(1))[0],
		"Max":              Uniform(nan).Max(Uniform(1))[0],
		"Clamp":            Uniform(nan).Clamp(0, 100)[0],
		"ClampNonNegative": Uniform(nan).ClampNonNegative()[0],
	} {
		if !math.IsNaN(got) {
			t.Errorf("%s of a NaN receiver = %v, want NaN", name, got)
		}
	}
}

func TestMaxComponentAndDominant(t *testing.T) {
	v := New(10, 80, 30, 40)
	d, m := v.MaxComponent()
	if d != GPU || m != 80 {
		t.Errorf("MaxComponent = (%v, %v), want (GPU, 80)", d, m)
	}
	if v.Dominant() != 80 {
		t.Errorf("Dominant = %v", v.Dominant())
	}
}

func TestDistances(t *testing.T) {
	v := New(0, 0, 0, 0)
	w := New(3, 4, 0, 0)
	if got := v.Dist(w); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := v.Dist2(w); math.Abs(got-25) > 1e-12 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	if got := w.L2(); math.Abs(got-5) > 1e-12 {
		t.Errorf("L2 = %v, want 5", got)
	}
}

func TestRatio(t *testing.T) {
	grant := New(50, 30, 0, 10)
	demand := New(100, 30, 0, 20)
	r := grant.Ratio(demand)
	if r[CPU] != 0.5 || r[GPU] != 1 || r[GPUMem] != 1 || r[Mem] != 0.5 {
		t.Errorf("Ratio = %v", r)
	}
	if got := grant.MinRatio(demand); got != 0.5 {
		t.Errorf("MinRatio = %v", got)
	}
	// x/0 with x > 0 is +Inf.
	inf := New(1, 0, 0, 0).Ratio(Zero)
	if !math.IsInf(inf[CPU], 1) {
		t.Errorf("1/0 ratio = %v, want +Inf", inf[CPU])
	}
}

func TestAggregates(t *testing.T) {
	vs := []Vector{New(10, 20, 30, 40), New(30, 10, 50, 20)}
	if got := Mean(vs); got != New(20, 15, 40, 30) {
		t.Errorf("Mean = %v", got)
	}
	if got := PeakOf(vs); got != New(30, 20, 50, 40) {
		t.Errorf("PeakOf = %v", got)
	}
	if got := Mean(nil); got != Zero {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := PeakOf(nil); got != Zero {
		t.Errorf("PeakOf(nil) = %v", got)
	}
}

func TestIsZero(t *testing.T) {
	if !Zero.IsZero() {
		t.Error("Zero.IsZero() = false")
	}
	if New(0, 0, 0.001, 0).IsZero() {
		t.Error("nonzero vector reported zero")
	}
}

func TestString(t *testing.T) {
	got := New(1.25, 2, 3, 4).String()
	want := "cpu=1.2 gpu=2.0 gpumem=3.0 mem=4.0"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// randVec generates vectors with components in [0, 100] for property tests.
func randVec(r *rand.Rand) Vector {
	var v Vector
	for d := range v {
		v[d] = r.Float64() * 100
	}
	return v
}

func TestPropertyAddCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v, w := randVec(r), randVec(r)
		return v.Add(w) == w.Add(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySubInvertsAdd(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v, w := randVec(r), randVec(r)
		got := v.Add(w).Sub(w)
		for d := range got {
			if math.Abs(got[d]-v[d]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDistSymmetricNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v, w := randVec(r), randVec(r)
		d1, d2 := v.Dist(w), w.Dist(v)
		return d1 >= 0 && math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randVec(r), randVec(r), randVec(r)
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyPeakDominatesAll(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		vs := make([]Vector, n)
		for i := range vs {
			vs[i] = randVec(r)
		}
		peak := PeakOf(vs)
		for _, v := range vs {
			if !v.Fits(peak) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMeanBetweenMinAndMax(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		vs := make([]Vector, n)
		lo, hi := Uniform(math.Inf(1)), Uniform(math.Inf(-1))
		for i := range vs {
			vs[i] = randVec(r)
			lo = lo.Min(vs[i])
			hi = hi.Max(vs[i])
		}
		m := Mean(vs)
		for d := range m {
			if m[d] < lo[d]-1e-9 || m[d] > hi[d]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The loop bodies the straight-line methods in vector.go replaced, kept as
// the reference they must agree with bit for bit.
var loopReference = struct {
	add, sub, min, max func(v, w Vector) Vector
	scale              func(v Vector, k float64) Vector
	clampNonNegative   func(v Vector) Vector
	fits               func(v, cap Vector) bool
	fitsWithin         func(v, cap Vector, slack float64) bool
	minRatio           func(v, w Vector) float64
}{
	add: func(v, w Vector) Vector {
		for d := range v {
			v[d] += w[d]
		}
		return v
	},
	sub: func(v, w Vector) Vector {
		for d := range v {
			v[d] -= w[d]
		}
		return v
	},
	min: func(v, w Vector) Vector {
		for d := range v {
			if w[d] < v[d] {
				v[d] = w[d]
			}
		}
		return v
	},
	max: func(v, w Vector) Vector {
		for d := range v {
			if w[d] > v[d] {
				v[d] = w[d]
			}
		}
		return v
	},
	scale: func(v Vector, k float64) Vector {
		for d := range v {
			v[d] *= k
		}
		return v
	},
	clampNonNegative: func(v Vector) Vector {
		for d := range v {
			if v[d] < 0 {
				v[d] = 0
			}
		}
		return v
	},
	fits: func(v, cap Vector) bool {
		for d := range v {
			if v[d] > cap[d] {
				return false
			}
		}
		return true
	},
	fitsWithin: func(v, cap Vector, slack float64) bool {
		for d := range v {
			if v[d] > cap[d]-slack {
				return false
			}
		}
		return true
	},
	minRatio: func(v, w Vector) float64 {
		var r Vector
		for d := range v {
			switch {
			case w[d] != 0:
				r[d] = v[d] / w[d]
			case v[d] == 0:
				r[d] = 1
			default:
				r[d] = math.Inf(1)
			}
		}
		m := r[0]
		for d := 1; d < len(r); d++ {
			if r[d] < m {
				m = r[d]
			}
		}
		return m
	},
}

// sameVec reports whether a and b carry the same bits in every component.
func sameVec(a, b Vector) bool {
	for d := range a {
		if math.Float64bits(a[d]) != math.Float64bits(b[d]) {
			return false
		}
	}
	return true
}

// v4Ops applies every V4 method to the Vector operands v and w (k is the
// scale, slack the FitsWithin reserve) and returns the results as Vectors, in
// the order of vectorOps.
func v4Ops(v, w Vector, k, slack float64) (vecs [6]Vector, preds [3]bool) {
	a, b := v.Load(), w.Load()
	vecs = [6]Vector{
		a.Add(b).Vector(), a.Sub(b).Vector(), a.Min(b).Vector(), a.Max(b).Vector(),
		a.Scale(k).Vector(), a.ClampNonNegative().Vector(),
	}
	return vecs, [3]bool{a.Fits(b), a.FitsWithin(b, slack), a.IsZero()}
}

// vectorOps is v4Ops through the Vector methods.
func vectorOps(v, w Vector, k, slack float64) (vecs [6]Vector, preds [3]bool) {
	vecs = [6]Vector{v.Add(w), v.Sub(w), v.Min(w), v.Max(w), v.Scale(k), v.ClampNonNegative()}
	return vecs, [3]bool{v.Fits(w), v.FitsWithin(w, slack), v.IsZero()}
}

// refOps is v4Ops through the loop reference.
func refOps(v, w Vector, k, slack float64) (vecs [6]Vector, preds [3]bool) {
	ref := loopReference
	vecs = [6]Vector{ref.add(v, w), ref.sub(v, w), ref.min(v, w), ref.max(v, w), ref.scale(v, k), ref.clampNonNegative(v)}
	return vecs, [3]bool{ref.fits(v, w), ref.fitsWithin(v, w, slack), v == Zero}
}

// checkOps requires the V4 methods, the Vector methods and the loop
// reference to agree bit for bit on one operand set.
func checkOps(t *testing.T, v, w Vector, k, slack float64) {
	t.Helper()
	names := [...]string{"Add", "Sub", "Min", "Max", "Scale", "ClampNonNegative", "Fits", "FitsWithin", "IsZero"}
	refV, refP := refOps(v, w, k, slack)
	want := math.Float64bits(loopReference.minRatio(v, w))
	if got := math.Float64bits(v.Load().MinRatio(w.Load())); got != want {
		t.Errorf("V4.MinRatio(%v, %v) = %x, loop %x", v, w, got, want)
	}
	if got := math.Float64bits(v.MinRatio(w)); got != want {
		t.Errorf("Vector.MinRatio(%v, %v) = %x, loop %x", v, w, got, want)
	}
	for _, side := range []struct {
		name  string
		ops   func(v, w Vector, k, slack float64) ([6]Vector, [3]bool)
		vecs  [6]Vector
		preds [3]bool
	}{{name: "V4", ops: v4Ops}, {name: "Vector", ops: vectorOps}} {
		vecs, preds := side.ops(v, w, k, slack)
		for i := range vecs {
			if !sameVec(vecs[i], refV[i]) {
				t.Errorf("%s.%s(%v, %v, k=%v) = %v, loop %v", side.name, names[i], v, w, k, vecs[i], refV[i])
			}
		}
		for i := range preds {
			if preds[i] != refP[i] {
				t.Errorf("%s.%s(%v, %v, slack=%v) = %v, loop %v", side.name, names[6+i], v, w, slack, preds[i], refP[i])
			}
		}
	}
}

// TestVectorOpsMatchLoopReference compares every straight-line method, of V4
// and of Vector, with its loop form on operands that include both zeros,
// infinities, NaN on either side, negatives, and values one ulp either side
// of the clamp and capacity bounds. Vectors are rotations of the value list,
// so every component index sees every ordered pair of values with different
// neighbours beside it — a transposed field or index in an unrolled body
// cannot pass.
func TestVectorOpsMatchLoopReference(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	vals := []float64{
		0, negZero, inf, -inf, nan, -150, -1, -math.SmallestNonzeroFloat64,
		math.SmallestNonzeroFloat64, 0.1, 1, 5, math.Nextafter(95, 0), 95,
		math.Nextafter(95, 100), 100 - 0.1, math.Nextafter(100, 0), 100,
		math.Nextafter(100, 200), 150, math.MaxFloat64,
	}
	rot := func(i int) Vector {
		var v Vector
		for d := range v {
			v[d] = vals[(i+d)%len(vals)]
		}
		return v
	}
	for i := range vals {
		v := rot(i)
		for j := range vals {
			w := rot(j)
			for _, slack := range []float64{0, 0.1, 5, negZero, nan, inf} {
				checkOps(t, v, w, vals[j], slack)
			}
		}
	}
	// IsZero sees both zeros in every position, and a NaN beside them.
	for _, v := range []Vector{Zero, {negZero, 0, negZero, 0}, {0, 0, 0, nan}, {0, 0, math.SmallestNonzeroFloat64, 0}} {
		checkOps(t, v, v, 1, 0)
	}

	// The boundary the scheduler's safety margin sits on: exactly cap - slack
	// fits, one ulp above does not, in whichever dimension it occurs.
	for d := range Zero {
		for _, slack := range []float64{0.1, 5} {
			at, above := Uniform(1), Uniform(1)
			at[d] = 100 - slack
			above[d] = math.Nextafter(100-slack, 200)
			if !at.FitsWithin(FullServer, slack) || above.FitsWithin(FullServer, slack) {
				t.Errorf("dim %d slack %v: FitsWithin(cap-slack) = %v, one ulp above = %v; want true, false",
					d, slack, at.FitsWithin(FullServer, slack), above.FitsWithin(FullServer, slack))
			}
		}
	}
}

// TestLoadStoreRoundTrip requires Load and Store to move every component's
// bits unchanged, −0 and NaN payloads included, in the order of the fields.
func TestLoadStoreRoundTrip(t *testing.T) {
	payload := math.Float64frombits(0x7ff8_dead_beef_0001)
	in := Vector{math.Copysign(0, -1), payload, math.Inf(-1), math.Nextafter(95, 100)}
	v := in.Load()
	if got := [4]float64{v.C0, v.C1, v.C2, v.C3}; !sameVec(got, in) {
		t.Fatalf("Load(%v) = %v", in, v)
	}
	var out Vector
	out.Store(v)
	if !sameVec(out, in) || !sameVec(v.Vector(), in) {
		t.Fatalf("Store(Load(%v)) = %v, Vector() = %v", in, out, v.Vector())
	}
}

// FuzzV4MatchesVector holds every V4 method to its Vector twin and the loop
// reference, bit for bit, on arbitrary operands.
func FuzzV4MatchesVector(f *testing.F) {
	f.Add(1.0, -2.0, 95.0, math.Nextafter(100, 200), 0.0, math.Inf(1), -0.5, 100.0, 0.5, 5.0)
	f.Add(math.NaN(), math.Copysign(0, -1), 0.0, -1e-300, math.NaN(), 0.0, math.Copysign(0, -1), 1e300, math.NaN(), math.NaN())
	f.Fuzz(func(t *testing.T, v0, v1, v2, v3, w0, w1, w2, w3, k, slack float64) {
		checkOps(t, Vector{v0, v1, v2, v3}, Vector{w0, w1, w2, w3}, k, slack)
	})
}

// BenchmarkVectorFold is the tick's inner shape: a running sum of a hosted
// list's vectors, compared against capacity once at the end.
func BenchmarkVectorFold(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vs := make([]Vector, 16)
	for i := range vs {
		vs[i] = randVec(r).Scale(1.0 / 16)
	}
	fit := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum, peak Vector
		for _, v := range vs {
			sum = sum.Add(v)
			peak = peak.Max(v)
		}
		if sum.Sub(peak).ClampNonNegative().FitsWithin(FullServer, 5) {
			fit++
		}
	}
	if fit != b.N {
		b.Fatalf("fold fitted %d of %d times", fit, b.N)
	}
}

// BenchmarkVectorFoldV4 is BenchmarkVectorFold in registers: V4 locals, the
// operands read from storage with Load.
func BenchmarkVectorFoldV4(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vs := make([]Vector, 16)
	for i := range vs {
		vs[i] = randVec(r).Scale(1.0 / 16)
	}
	capacity := FullServer.Load()
	fit := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum, peak V4
		for j := range vs {
			v := vs[j].Load()
			sum = sum.Add(v)
			peak = peak.Max(v)
		}
		if sum.Sub(peak).ClampNonNegative().FitsWithin(capacity, 5) {
			fit++
		}
	}
	if fit != b.N {
		b.Fatalf("fold fitted %d of %d times", fit, b.N)
	}
}
