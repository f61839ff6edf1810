// Package resources defines the multi-dimensional resource vectors that flow
// through every CoCG component.
//
// The paper characterizes each 5-second game frame by the CPU, GPU, GPU
// memory, and system memory it consumes (Section IV-A). All values are
// expressed as a percentage of one server's capacity in that dimension, so a
// server is simply the vector {100, 100, 100, 100} and co-location feasibility
// is a component-wise comparison.
package resources

import (
	"fmt"
	"math"
	"unsafe"
)

// Dim indexes one resource dimension of a Vector.
type Dim int

// The four resource dimensions tracked by CoCG, mirroring what the paper
// collects via cgroups (CPU, memory) and GPU-Z (GPU, GPU memory).
const (
	CPU Dim = iota
	GPU
	GPUMem
	Mem
	NumDims // number of dimensions; keep last
)

// dimNames maps dimensions to their display names.
var dimNames = [NumDims]string{"cpu", "gpu", "gpumem", "mem"}

// String returns the lowercase name of the dimension.
func (d Dim) String() string {
	if d < 0 || d >= NumDims {
		return fmt.Sprintf("dim(%d)", int(d))
	}
	return dimNames[d]
}

// Vector is a point in resource space. Units are percent of a reference
// server's capacity per dimension, so values normally live in [0, 100] but
// sums of co-located demands may exceed 100 (that is exactly the overload
// condition the scheduler avoids).
type Vector [NumDims]float64

// New returns a Vector with the given components.
func New(cpu, gpu, gpumem, mem float64) Vector {
	return Vector{cpu, gpu, gpumem, mem}
}

// Uniform returns a Vector with every component set to v.
func Uniform(v float64) Vector {
	var out Vector
	for d := range out {
		out[d] = v
	}
	return out
}

// Zero is the all-zeros vector.
var Zero Vector

// FullServer is the capacity of one reference server: 100 % in every
// dimension.
var FullServer = Uniform(100)

// V4 is a Vector's components as four fields, which the compiler keeps in
// registers where a Vector temporary stalls on store forwarding
// (docs/PERFORMANCE.md, "Vector arithmetic and the compiler"). Its methods
// match the loops in vector_test.go bit for bit, stay inlinable
// (//cocg:inline), and back Vector's methods of the same names.
type V4 struct{ C0, C1, C2, C3 float64 }

// The guards stop compiling unless V4 has NumDims fields and Vector's size.
var (
	_ [0]struct{} = [NumDims - 4]struct{}{}
	_ [0]struct{} = [unsafe.Sizeof(V4{}) - unsafe.Sizeof(Vector{})]struct{}{}
)

// Load reads v as four scalar loads (the two types share one layout).
//
//cocg:inline
func (v *Vector) Load() V4 { return *(*V4)(unsafe.Pointer(v)) }

// Store writes w into v as four scalar stores.
//
//cocg:inline
func (v *Vector) Store(w V4) { *(*V4)(unsafe.Pointer(v)) = w }

// Vector returns v as a Vector value.
//
//cocg:inline
func (v V4) Vector() Vector { return Vector{v.C0, v.C1, v.C2, v.C3} }

// Add returns v + w component-wise.
//
//cocg:inline
func (v V4) Add(w V4) V4 { return V4{v.C0 + w.C0, v.C1 + w.C1, v.C2 + w.C2, v.C3 + w.C3} }

// Sub returns v - w component-wise.
//
//cocg:inline
func (v V4) Sub(w V4) V4 { return V4{v.C0 - w.C0, v.C1 - w.C1, v.C2 - w.C2, v.C3 - w.C3} }

// Scale returns v with every component multiplied by k.
//
//cocg:inline
func (v V4) Scale(k float64) V4 { return V4{v.C0 * k, v.C1 * k, v.C2 * k, v.C3 * k} }

// Min, Max and ClampNonNegative are compare-selects rather than
// math.Min/math.Max calls: those are assembly stubs on amd64, so they never
// inline. On finite operands the results are identical except that a
// (-0, +0) pair keeps the receiver's zero instead of math's sign rule; a NaN
// component in w is ignored rather than propagated. The simulator produces
// neither.

// Min returns the component-wise minimum of v and w.
//
//cocg:inline
func (v V4) Min(w V4) V4 {
	if w.C0 < v.C0 {
		v.C0 = w.C0
	}
	if w.C1 < v.C1 {
		v.C1 = w.C1
	}
	if w.C2 < v.C2 {
		v.C2 = w.C2
	}
	if w.C3 < v.C3 {
		v.C3 = w.C3
	}
	return v
}

// Max returns the component-wise maximum of v and w.
//
//cocg:inline
func (v V4) Max(w V4) V4 {
	if w.C0 > v.C0 {
		v.C0 = w.C0
	}
	if w.C1 > v.C1 {
		v.C1 = w.C1
	}
	if w.C2 > v.C2 {
		v.C2 = w.C2
	}
	if w.C3 > v.C3 {
		v.C3 = w.C3
	}
	return v
}

// ClampNonNegative zeroes any negative component: Max against +0, whose
// test 0 > x is x < 0.
//
//cocg:inline
func (v V4) ClampNonNegative() V4 { return v.Max(V4{}) }

// Fits reports whether v fits within capacity cap in every dimension. A NaN
// component on either side compares false and so "fits", as it always has.
//
//cocg:inline
func (v V4) Fits(cap V4) bool {
	return !(v.C0 > cap.C0 || v.C1 > cap.C1 || v.C2 > cap.C2 || v.C3 > cap.C3)
}

// FitsWithin reports whether v fits within cap with headroom slack percent
// reserved in every dimension (i.e. v <= cap - slack).
//
//cocg:inline
func (v V4) FitsWithin(cap V4, slack float64) bool {
	return !(v.C0 > cap.C0-slack || v.C1 > cap.C1-slack || v.C2 > cap.C2-slack || v.C3 > cap.C3-slack)
}

// IsZero reports whether every component of v is zero (either sign).
//
//cocg:inline
func (v V4) IsZero() bool { return v == V4{} }

// Add returns v + w component-wise.
//
//cocg:inline
func (v Vector) Add(w Vector) Vector { return v.Load().Add(w.Load()).Vector() }

// Sub returns v - w component-wise.
//
//cocg:inline
func (v Vector) Sub(w Vector) Vector { return v.Load().Sub(w.Load()).Vector() }

// Scale returns v with every component multiplied by k.
//
//cocg:inline
func (v Vector) Scale(k float64) Vector { return v.Load().Scale(k).Vector() }

// Min returns the component-wise minimum of v and w.
//
//cocg:inline
func (v Vector) Min(w Vector) Vector { return v.Load().Min(w.Load()).Vector() }

// Max returns the component-wise maximum of v and w.
//
//cocg:inline
func (v Vector) Max(w Vector) Vector { return v.Load().Max(w.Load()).Vector() }

// Clamp limits every component of v to the range [lo, hi]. It stays a loop:
// unrolled it is eight branches, past the inliner's budget.
func (v Vector) Clamp(lo, hi float64) Vector {
	for d := range v {
		if v[d] > hi {
			v[d] = hi
		}
		if v[d] < lo {
			v[d] = lo
		}
	}
	return v
}

// ClampNonNegative zeroes any negative component.
//
//cocg:inline
func (v Vector) ClampNonNegative() Vector { return v.Load().ClampNonNegative().Vector() }

// Fits reports whether v fits within capacity cap in every dimension.
//
//cocg:inline
func (v Vector) Fits(cap Vector) bool { return v.Load().Fits(cap.Load()) }

// FitsWithin reports whether v fits within cap with headroom slack percent
// reserved in every dimension (i.e. v <= cap - slack).
//
//cocg:inline
func (v Vector) FitsWithin(cap Vector, slack float64) bool {
	return v.Load().FitsWithin(cap.Load(), slack)
}

// MaxComponent returns the largest component of v and its dimension.
func (v Vector) MaxComponent() (Dim, float64) {
	best, bestD := v[0], Dim(0)
	for d := Dim(1); d < NumDims; d++ {
		if v[d] > best {
			best, bestD = v[d], d
		}
	}
	return bestD, best
}

// Dominant is shorthand for the value of the largest component; it is the
// scalar "utilization" the paper plots when it collapses the vector to one
// number.
func (v Vector) Dominant() float64 {
	_, m := v.MaxComponent()
	return m
}

// L2 returns the Euclidean norm of v.
func (v Vector) L2() float64 {
	var s float64
	for d := range v {
		s += v[d] * v[d]
	}
	return math.Sqrt(s)
}

// Dist returns the Euclidean distance between v and w; this is the metric the
// frame clusterer uses.
func (v Vector) Dist(w Vector) float64 { return math.Sqrt(v.Dist2(w)) }

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vector) Dist2(w Vector) float64 {
	var s float64
	for d := range v {
		diff := v[d] - w[d]
		s += diff * diff
	}
	return s
}

// Ratio returns the component-wise ratio v/w, treating 0/0 as 1 and x/0 as
// +Inf for x > 0. It is used to compute how much of a demand was satisfied.
func (v Vector) Ratio(w Vector) Vector {
	var out Vector
	for d := range v {
		out[d] = ratio(v[d], w[d])
	}
	return out
}

func ratio(x, y float64) float64 {
	switch {
	case y != 0:
		return x / y
	case x == 0:
		return 1
	}
	return math.Inf(1)
}

// MinRatio returns the smallest component of v.Ratio(w); when v is a grant
// and w a demand this is the fraction of the demand that was satisfied in the
// tightest dimension, which drives the FPS model.
func (v V4) MinRatio(w V4) float64 {
	m := ratio(v.C0, w.C0)
	for _, r := range [...]float64{ratio(v.C1, w.C1), ratio(v.C2, w.C2), ratio(v.C3, w.C3)} {
		if r < m {
			m = r
		}
	}
	return m
}

// MinRatio is V4.MinRatio on Vectors.
func (v Vector) MinRatio(w Vector) float64 { return v.Load().MinRatio(w.Load()) }

// IsZero reports whether every component of v is zero.
func (v Vector) IsZero() bool { return v.Load().IsZero() }

// String formats the vector as "cpu=12.3 gpu=45.6 gpumem=7.8 mem=9.0".
func (v Vector) String() string {
	return fmt.Sprintf("cpu=%.1f gpu=%.1f gpumem=%.1f mem=%.1f",
		v[CPU], v[GPU], v[GPUMem], v[Mem])
}

// Mean returns the arithmetic mean of the vectors in vs, or Zero when vs is
// empty.
func Mean(vs []Vector) Vector {
	if len(vs) == 0 {
		return Zero
	}
	var sum Vector
	for _, v := range vs {
		sum = sum.Add(v)
	}
	return sum.Scale(1 / float64(len(vs)))
}

// PeakOf returns the component-wise maximum over vs, or Zero when vs is
// empty. The paper calls this the peak consumption M of a game.
func PeakOf(vs []Vector) Vector {
	var peak Vector
	for _, v := range vs {
		peak = peak.Max(v)
	}
	return peak
}
