// Package obs is the serving tiers' one home for the Prometheus text
// exposition format. A tier declares its metrics once, as a table of
// families over its own snapshot type, and Handler serves that table at
// /metrics and the snapshot itself as indented JSON at /status.
package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
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

// Emit adds one sample of value v; labels alternate names and values.
type Emit func(v float64, labels ...string)

// labelEscaper escapes a label value as the text format defines: backslash,
// double quote and newline only, every other byte (UTF-8 too) as it is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// appendText appends snap rendered as the text format: each family's
// # HELP and # TYPE lines, then its samples.
func appendText[S any](dst []byte, table []Metric[S], snap S) []byte {
	for _, m := range table {
		dst = append(dst, "# HELP "+m.Name+" "+m.Help+"\n# TYPE "+m.Name+" "+m.Type+"\n"...)
		m.Samples(snap, func(v float64, labels ...string) {
			dst = append(dst, m.Name...)
			sep := byte('{')
			for i := 0; i+1 < len(labels); i += 2 {
				dst = append(append(dst, sep), labels[i]+`="`+labelEscaper.Replace(labels[i+1])+`"`...)
				sep = ','
			}
			if sep == ',' {
				dst = append(dst, '}')
			}
			dst = append(dst, ' ')
			dst = append(strconv.AppendFloat(dst, v, 'f', m.Prec, 64), '\n')
		})
	}
	return dst
}

// Handler serves table over a fresh snapshot at /metrics, and the snapshot
// as indented JSON at /status; any other path is not found.
func Handler[S any](table []Metric[S], snapshot func() S) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Write errors are dropped: a failed write means the client hung
		// up, and there is no one left to tell.
		switch r.URL.Path {
		case "/metrics":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_, _ = w.Write(appendText(nil, table, snapshot()))
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
