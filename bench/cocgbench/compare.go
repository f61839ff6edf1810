package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles judges a new document against an old one, workload row by
// workload row, and returns a non-zero exit code on a regression or a row it
// has to refuse.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var docs [2]Document
	for i, path := range []string{oldPath, newPath} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &docs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "cocgbench: %s: %v\n", path, err)
			return 2
		}
	}
	regressed := compareDocuments(docs[0], docs[1], stdout)
	if regressed {
		return 1
	}
	return 0
}

// compareDocuments prints one verdict per end-to-end metric per workload row
// and reports whether any row regressed or was refused: rows whose input
// digests differ measured different work.
func compareDocuments(old, new Document, w io.Writer) (bad bool) {
	fmt.Fprintf(w, "old: commit %s dirty=%v %s GOMAXPROCS=%d seed %d\n", old.Commit, old.Dirty, old.GoVersion, old.GOMAXPROCS, old.Seed)
	fmt.Fprintf(w, "new: commit %s dirty=%v %s GOMAXPROCS=%d seed %d\n", new.Commit, new.Dirty, new.GoVersion, new.GOMAXPROCS, new.Seed)
	for _, nw := range new.Workloads {
		var ow *WorkloadRecord
		for i := range old.Workloads {
			if old.Workloads[i].Name == nw.Name {
				ow = &old.Workloads[i]
			}
		}
		if ow == nil {
			fmt.Fprintf(w, "%-14s only in the new record\n", nw.Name)
			continue
		}
		if ow.InputDigest != nw.InputDigest {
			fmt.Fprintf(w, "%-14s refused: inputs differ (%.12s vs %.12s)\n", nw.Name, ow.InputDigest, nw.InputDigest)
			bad = true
			continue
		}
		if !nw.Correct {
			fmt.Fprintf(w, "%-14s regressed: the new record failed its output checks\n", nw.Name)
			bad = true
		}
		for _, e := range endToEnd {
			om, okOld := ow.EndToEnd[e.name]
			nm, okNew := nw.EndToEnd[e.name]
			if !okOld || !okNew {
				continue
			}
			verdict := judge(e, om, nm, ow.OutputDigest != "")
			bad = bad || verdict == "regressed"
			fmt.Fprintf(w, "%-14s %-22s %14.6g -> %14.6g %-8s %+7.2f%%  %s\n",
				nw.Name, e.name, om.Value, nm.Value, e.unit, 100*(nm.Value-om.Value)/om.Value, verdict)
		}
	}
	return bad
}

// judge classifies a metric's change. A workload whose output is digested is
// a deterministic simulation: its quality numbers repeat exactly for a seed,
// so they get the metric's tight allowance; everything else may move by the
// metric's bound. A metric whose per-rep samples spread wider than the
// tolerance cannot resolve a change of that size and is reported as
// unresolved rather than as unchanged.
func judge(e endToEndMetric, old, new Metric, deterministic bool) string {
	tol := e.bound * math.Abs(old.Value)
	if deterministic && (e.exactRel > 0 || e.exactAbs > 0) {
		tol = math.Max(e.exactRel*math.Abs(old.Value), e.exactAbs)
	}
	gain := new.Value - old.Value
	if !e.higher {
		gain = -gain
	}
	noisy := func(m Metric) bool { return len(m.Samples) >= 4 && spread(m.Samples)*math.Abs(m.Value) > tol }
	switch {
	case noisy(old) || noisy(new):
		return "unresolved"
	case gain < -tol:
		return "regressed"
	case gain > tol:
		return "better"
	default:
		return "within bound"
	}
}
