package experiments

import (
	"cocg/internal/export"
	"cocg/internal/resources"
)

// The experiments that back plotted figures expose their raw series in
// export form, for CSV dumps and terminal charts.

// Plot returns Fig. 2's per-frame CPU/GPU utilization trace.
func (r *Fig2Result) Plot() []*export.Series {
	s := export.NewSeries("fig2 "+r.Game+" utilization", "frame", "cpu", "gpu")
	for _, v := range r.Series {
		s.MustAdd(v[resources.CPU], v[resources.GPU])
	}
	return []*export.Series{s}
}

// Plot returns Fig. 9's co-location utilization timeline.
func (r *Fig9Result) Plot() []*export.Series {
	s := export.NewSeries("fig9 genshin dota2 colocation", "frame", "genshin", "dota2", "total")
	for _, p := range r.Series {
		s.MustAdd(p[0], p[1], p[2])
	}
	return []*export.Series{s}
}

// Plot returns Fig. 10's allocated-vs-demanded GPU series for the sampled
// Genshin session.
func (r *Fig10Result) Plot() []*export.Series {
	s := export.NewSeries("fig10 genshin allocation", "second", "allocated", "demanded")
	for _, p := range r.GenshinSeries {
		s.MustAdd(p[0], p[1])
	}
	return []*export.Series{s}
}

// Plot returns Fig. 14's per-game SSE curves as one series per game
// (x = K).
func (r *Fig14Result) Plot() []*export.Series {
	var out []*export.Series
	for _, c := range r.Curves {
		s := export.NewSeries("fig14 "+c.Game+" sse", "k", "sse")
		for _, p := range c.Points {
			s.MustAdd(p.SSE)
		}
		out = append(out, s)
	}
	return out
}
