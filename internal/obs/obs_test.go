package obs

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestLabelValueEscaping checks label values against the text format's
// rules: only backslash, double quote and newline are escaped, and every
// other byte, tab and UTF-8 included, is written as it is.
func TestLabelValueEscaping(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"us-east", `"us-east"`},
		{"us\teast", "\"us\teast\""},
		{"us\neast", `"us\neast"`},
		{`us\east`, `"us\\east"`},
		{`eu-"west"`, `"eu-\"west\""`},
		{"zürich", `"zürich"`},
		{"", `""`},
	} {
		if got := `"` + string(appendLabelValue(nil, c.in)) + `"`; got != c.want {
			t.Errorf("label value %q renders as %s, want %s", c.in, got, c.want)
		}
	}
}

// TestHandler checks the two pages' content types, a family with and
// without labels, and that any other path is not found.
func TestHandler(t *testing.T) {
	type snap struct{ N int }
	table := []Metric[snap]{
		{Name: "x_total", Type: Counter, Help: "Xs.", Samples: func(s snap, emit Emit) { emit(float64(s.N)) }},
		{Name: "y", Type: Gauge, Help: "Ys.", Prec: 2, Samples: func(s snap, emit Emit) {
			emit(0.125, "a", "1", "b", "z\nw")
			emit(-1)
		}},
	}
	h := Handler(table, func() snap { return snap{N: 3} })
	for _, c := range []struct{ path, contentType, body string }{
		{"/metrics", "text/plain; version=0.0.4",
			"# HELP x_total Xs.\n# TYPE x_total counter\nx_total 3\n" +
				"# HELP y Ys.\n# TYPE y gauge\ny{a=\"1\",b=\"z\\nw\"} 0.12\ny -1.00\n"},
		{"/status", "application/json", "{\n  \"N\": 3\n}\n"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
		if got := rec.Header().Get("Content-Type"); got != c.contentType {
			t.Errorf("%s: Content-Type %q, want %q", c.path, got, c.contentType)
		}
		if got := rec.Body.String(); got != c.body {
			t.Errorf("%s: body\n%q\nwant\n%q", c.path, got, c.body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/other", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/other: status %d, want 404", rec.Code)
	}
}
