// Package obs is the serving tiers' one home for the Prometheus text
// exposition format. A tier declares its metrics once, as a table of
// families over its own snapshot type, and Handler serves that table at
// /metrics and the snapshot itself as indented JSON at /status.
package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync/atomic"
)

// The metric types a family can have, as its # TYPE line spells them.
const (
	Counter = "counter"
	Gauge   = "gauge"
)

// Metric is one family read from a snapshot of type S: its name, type
// (Counter or Gauge), help text, digits after the decimal point of every
// sample, and a function that emits its samples in order.
type Metric[S any] struct {
	Name, Type, Help string
	Prec             int
	Samples          func(snap S, emit Emit)
}

// Emit adds one sample of value v; labels alternate names and values. It
// keeps nothing of labels once it returns, so a family may reuse one label
// slice across its samples.
type Emit func(v float64, labels ...string)

// appendLabelValue appends v escaped as the text format defines for a label
// value: backslash, double quote and newline only, every other byte (UTF-8
// too) as it is.
func appendLabelValue(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			dst = append(dst, `\\`...)
		case '"':
			dst = append(dst, `\"`...)
		case '\n':
			dst = append(dst, `\n`...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// page is a text-format page being rendered: the bytes so far and the family
// whose samples are being emitted.
type page struct {
	buf  []byte
	name string
	prec int
}

// sample appends one sample line of the current family.
func (p *page) sample(v float64, labels ...string) {
	b := append(p.buf, p.name...)
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		b = append(append(b, sep), labels[i]...)
		b = append(appendLabelValue(append(b, `="`...), labels[i+1]), '"')
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	b = append(b, ' ')
	p.buf = append(strconv.AppendFloat(b, v, 'f', p.prec, 64), '\n')
}

// appendText appends snap rendered as the text format: each family's
// # HELP and # TYPE lines, then its samples. Every piece is appended in
// place, so past dst's growth a page costs one page and one emitter.
func appendText[S any](dst []byte, table []Metric[S], snap S) []byte {
	p := &page{buf: dst}
	emit := p.sample
	for _, m := range table {
		b := append(append(append(p.buf, "# HELP "...), m.Name...), ' ')
		b = append(append(append(b, m.Help...), "\n# TYPE "...), m.Name...)
		p.buf = append(append(append(b, ' '), m.Type...), '\n')
		p.name, p.prec = m.Name, m.Prec
		m.Samples(snap, emit)
	}
	return p.buf
}

// Handler serves table over a fresh snapshot at /metrics, and the snapshot
// as indented JSON at /status; any other path is not found.
//
// Each /metrics page is rendered into a buffer the size of the page before
// it, so a page that keeps its size grows no buffer. Scrapes may run
// concurrently, so the size is kept in an atomic; racing scrapes only
// disagree on a hint.
func Handler[S any](table []Metric[S], snapshot func() S) http.Handler {
	var size atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Write errors are dropped: a failed write means the client hung
		// up, and there is no one left to tell.
		switch r.URL.Path {
		case "/metrics":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			text := appendText(make([]byte, 0, size.Load()), table, snapshot())
			size.Store(int64(len(text)))
			_, _ = w.Write(text)
		case "/status":
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(snapshot())
		default:
			http.NotFound(w, r)
		}
	})
}
