// Package tracefile persists game traces as JSON-lines, so profiling data
// can cross process boundaries: record on one machine (or export from a real
// measurement pipeline in the same shape), build profiles and train
// predictors elsewhere. The first line is a header; every following line is
// one 5-second frame.
package tracefile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cocg/internal/gamesim"
	"cocg/internal/resources"
)

// header is the first JSON line of a trace file.
type header struct {
	Format  string `json:"format"`
	Game    string `json:"game"`
	Script  int    `json:"script"`
	Player  int64  `json:"player"`
	Cohort  int64  `json:"cohort"`
	Habit   int64  `json:"habit"`
	Session int64  `json:"session"`
}

// frameLine is one frame record.
type frameLine struct {
	Demand  [4]float64 `json:"d"`
	Stage   int        `json:"s"`
	Cluster int        `json:"c"`
	Loading bool       `json:"l,omitempty"`
}

// formatTag identifies the file format.
const formatTag = "cocg-trace-v1"

// Write emits one trace as JSON lines.
func Write(tr *gamesim.Trace, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{
		Format: formatTag, Game: tr.Game, Script: tr.Script,
		Player: tr.Player, Cohort: tr.Cohort, Habit: tr.Habit, Session: tr.Session,
	}); err != nil {
		return err
	}
	for _, f := range tr.Frames {
		if err := enc.Encode(frameLine{
			Demand: f.Demand, Stage: f.StageType, Cluster: f.Cluster, Loading: f.Loading,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses one trace. Per-second samples are not stored, so the loaded
// trace carries frames and visits only (Duration stays 0) — exactly what the
// profiler and dataset extraction consume.
func Read(r io.Reader) (*gamesim.Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("tracefile: empty input")
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("tracefile: bad header: %w", err)
	}
	if h.Format != formatTag {
		return nil, fmt.Errorf("tracefile: format %q, want %q", h.Format, formatTag)
	}
	tr := &gamesim.Trace{
		Game: h.Game, Script: h.Script, Player: h.Player,
		Cohort: h.Cohort, Habit: h.Habit, Session: h.Session,
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var f frameLine
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, fmt.Errorf("tracefile: frame %d: %w", len(tr.Frames), err)
		}
		tr.Frames = append(tr.Frames, gamesim.FrameSample{
			Frame:     len(tr.Frames),
			Demand:    resources.Vector(f.Demand),
			StageType: f.Stage,
			Cluster:   f.Cluster,
			Loading:   f.Loading,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tr.Frames) == 0 {
		return nil, fmt.Errorf("tracefile: trace has no frames")
	}
	tr.Visits = gamesim.Visits(tr.Frames)
	return tr, nil
}

// SaveAll writes a corpus, one file per trace, into dir as
// <game>-<index>.trace (game name sanitized).
func SaveAll(traces []*gamesim.Trace, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for i, tr := range traces {
		path := fmt.Sprintf("%s/%s-%04d.trace", dir, safe(tr.Game), i)
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := Write(tr, f); err != nil {
			_ = f.Close() // write error dominates
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

func safe(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
