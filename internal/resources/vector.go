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

// The arithmetic below is written component by component with constant
// indices, not as `for d := range v`: the compiler keeps a [4]float64 in
// memory and does not unroll the loop (docs/PERFORMANCE.md, "Vector arithmetic
// and the compiler"). Each method performs the same IEEE operation on the
// same operands as the loop it replaced (kept in vector_test.go as the
// reference) and must stay inlinable, which //cocg:inline makes `make lint`
// check. The guard stops compiling when NumDims is not the 4 they unroll.
var _ [0]struct{} = [NumDims - 4]struct{}{}

// Add returns v + w component-wise.
//
//cocg:inline
func (v Vector) Add(w Vector) Vector {
	return Vector{v[0] + w[0], v[1] + w[1], v[2] + w[2], v[3] + w[3]}
}

// Sub returns v - w component-wise.
//
//cocg:inline
func (v Vector) Sub(w Vector) Vector {
	return Vector{v[0] - w[0], v[1] - w[1], v[2] - w[2], v[3] - w[3]}
}

// Scale returns v with every component multiplied by k.
//
//cocg:inline
func (v Vector) Scale(k float64) Vector {
	return Vector{v[0] * k, v[1] * k, v[2] * k, v[3] * k}
}

// Min, Max, Clamp and ClampNonNegative are compare-selects rather than
// math.Min/math.Max calls: those are assembly stubs on amd64, so they never
// inline and every call site would copy both vectors through memory. On
// finite operands the results are identical except that a (-0, +0) pair
// keeps the receiver's zero instead of math's sign rule; a NaN component in
// w is ignored rather than propagated. The simulator produces neither.

// Min returns the component-wise minimum of v and w.
//
//cocg:inline
func (v Vector) Min(w Vector) Vector {
	if w[0] < v[0] {
		v[0] = w[0]
	}
	if w[1] < v[1] {
		v[1] = w[1]
	}
	if w[2] < v[2] {
		v[2] = w[2]
	}
	if w[3] < v[3] {
		v[3] = w[3]
	}
	return v
}

// Max returns the component-wise maximum of v and w.
//
//cocg:inline
func (v Vector) Max(w Vector) Vector {
	if w[0] > v[0] {
		v[0] = w[0]
	}
	if w[1] > v[1] {
		v[1] = w[1]
	}
	if w[2] > v[2] {
		v[2] = w[2]
	}
	if w[3] > v[3] {
		v[3] = w[3]
	}
	return v
}

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
func (v Vector) ClampNonNegative() Vector {
	if v[0] < 0 {
		v[0] = 0
	}
	if v[1] < 0 {
		v[1] = 0
	}
	if v[2] < 0 {
		v[2] = 0
	}
	if v[3] < 0 {
		v[3] = 0
	}
	return v
}

// Fits reports whether v fits within capacity cap in every dimension. A NaN
// component on either side compares false and so "fits", as it always has.
//
//cocg:inline
func (v Vector) Fits(cap Vector) bool {
	return !(v[0] > cap[0] || v[1] > cap[1] || v[2] > cap[2] || v[3] > cap[3])
}

// FitsWithin reports whether v fits within cap with headroom slack percent
// reserved in every dimension (i.e. v <= cap - slack).
//
//cocg:inline
func (v Vector) FitsWithin(cap Vector, slack float64) bool {
	return !(v[0] > cap[0]-slack || v[1] > cap[1]-slack || v[2] > cap[2]-slack || v[3] > cap[3]-slack)
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
func (v Vector) Dist(w Vector) float64 { return v.Sub(w).L2() }

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
		switch {
		case w[d] != 0:
			out[d] = v[d] / w[d]
		case v[d] == 0:
			out[d] = 1
		default:
			out[d] = math.Inf(1)
		}
	}
	return out
}

// MinRatio returns the smallest component of v.Ratio(w); when v is a grant
// and w a demand this is the fraction of the demand that was satisfied in the
// tightest dimension, which drives the FPS model.
func (v Vector) MinRatio(w Vector) float64 {
	r := v.Ratio(w)
	m := r[0]
	for d := Dim(1); d < NumDims; d++ {
		if r[d] < m {
			m = r[d]
		}
	}
	return m
}

// IsZero reports whether every component of v is zero.
func (v Vector) IsZero() bool { return v == Zero }

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
