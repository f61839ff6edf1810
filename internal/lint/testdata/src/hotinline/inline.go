// Package inlinelike exercises the inlinability gate: the lint test reads the
// INLINE markers below and fabricates the `can inline` lines `go build
// -gcflags=-m` emits for those declarations, mirroring the real tree.
package inlinelike

type vec [4]float64

// Annotated and reported inlinable: silent.
//
//cocg:inline
func (v vec) add(w vec) vec { // INLINE:vec.add
	return vec{v[0] + w[0], v[1] + w[1], v[2] + w[2], v[3] + w[3]}
}

// Annotated, but the compiler said nothing about it: the finding.
//
//cocg:inline
func (v vec) sum() float64 { // want `\[hotinline\] //cocg:inline function sum is not reported .can inline. by the compiler`
	var s float64
	for d := range v {
		s += v[d]
	}
	return s
}

// Unannotated and not inlinable: not the analyzer's business.
func cold(n int) int {
	if n <= 1 {
		return 1
	}
	return n * cold(n-1)
}

// Unannotated and inlinable: the report is simply unused.
func small(a, b int) int { // INLINE:small
	return a + b
}
