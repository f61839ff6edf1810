// Package vectorlike exercises the register-resident arithmetic gate.
package vectorlike

import "cocg/internal/resources"

type hosted struct{ request resources.Vector }

//cocg:hot
func hotCopies(hs []*hosted) resources.V4 {
	var total resources.Vector // want `\[hotvector\] resources\.Vector local total in //cocg:hot function hotCopies`
	for _, h := range hs {
		req := h.request // want `\[hotvector\] resources\.Vector local req in //cocg:hot function hotCopies`
		total = total.Add(req)
	}
	first := func(v resources.Vector) float64 { return v[0] } // want `\[hotvector\] resources\.Vector local v in //cocg:hot function hotCopies`
	_ = first(total)
	return total.Load()
}

//cocg:hot
func hotRegisters(hs []*hosted, cap resources.Vector) (fits bool) {
	var total resources.V4
	for _, h := range hs {
		total = total.Add(h.request.Load())
	}
	_ = struct{ a resources.Vector }{}
	return total.Fits(cap.Load())
}

func cold(h *hosted) resources.Vector { v := h.request; return v }
