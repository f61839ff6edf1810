package cocg_test

import (
	"reflect"
	"slices"
	"testing"

	"cocg/internal/cluster"
	"cocg/internal/coordinator"
	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/mlmodels"
	"cocg/internal/predictor"
	"cocg/internal/profiler"
	"cocg/internal/scheduler"
	"cocg/internal/streaming"
)

// TestOptionSurface pins the exported fields of every audited config struct.
// Each field is an independently settable value, so one appears only when a
// program needs a value other than the default; a value no program sets is
// an unexported constant beside its reader. Adding or removing a field fails
// here until this table changes with it.
func TestOptionSurface(t *testing.T) {
	surface := []struct {
		typ    any
		fields []string
	}{
		{scheduler.Config{}, []string{"DisableLoadingSteal"}},
		{core.TrainOptions{}, []string{"Players", "SessionsPerPlayer", "Seed", "Workers"}},
		{predictor.TrainConfig{}, []string{"Players", "SessionsPerPlayer", "Seed"}},
		{predictor.Config{}, []string{"DisableRedundancy", "FixedRedundancy", "PriorAccuracy"}},
		{profiler.Config{}, []string{"K", "Seed"}},
		{cluster.Config{}, []string{"K", "Seed", "Restarts"}},
		{mlmodels.TreeConfig{}, []string{"MaxDepth", "FeatureSubset", "Seed"}},
		{gamesim.CorpusConfig{}, []string{"Players", "SessionsPerPlayer", "Seed"}},
		{streaming.ClientConfig{}, []string{"Game", "Script", "Timeout", "Link", "OnFrames"}},
		{streaming.ServerConfig{}, []string{"System", "Policy", "Servers", "TickEvery", "SessionSeed"}},
		{coordinator.Config{}, []string{"Clusters", "Weights", "ProbeEvery", "DownAfter", "Logf"}},
		{coordinator.RouteWeights{}, []string{"Latency"}},
		{coordinator.ClusterSpec{}, []string{"Name", "Addr", "LatencyMS"}},
	}
	for _, s := range surface {
		rt := reflect.TypeOf(s.typ)
		got := []string{}
		for i := 0; i < rt.NumField(); i++ {
			if f := rt.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, s.fields) {
			t.Errorf("%s exports %q, want %q", rt, got, s.fields)
		}
	}
}
