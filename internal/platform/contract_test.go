package platform_test

import (
	"reflect"
	"slices"
	"testing"

	"cocg/internal/platform"
)

// TestContractSurface pins the method sets of the contracts policies
// implement, the way TestOptionSurface pins config fields: every method here
// has a caller outside the tests, and a new one has to be added on purpose.
func TestContractSurface(t *testing.T) {
	surface := []struct {
		iface   any
		methods []string
	}{
		{(*platform.Policy)(nil), []string{
			"NewController func(*gamesim.GameSpec, int64) (platform.Controller, error)",
			"Regulate func(*platform.Server)",
			"Score func(*platform.Server, *gamesim.GameSpec) (float64, bool)",
		}},
		{(*platform.Controller)(nil), []string{
			"Loading func() bool",
			"Tick func(resources.Vector) resources.Vector",
		}},
		{(*platform.FleetSummarizer)(nil), []string{
			"FleetLoadInto func([]*platform.Server, *platform.FleetLoad)",
		}},
	}
	for _, s := range surface {
		rt := reflect.TypeOf(s.iface).Elem()
		got := []string{}
		for i := 0; i < rt.NumMethod(); i++ {
			m := rt.Method(i)
			got = append(got, m.Name+" "+m.Type.String())
		}
		if !slices.Equal(got, s.methods) {
			t.Errorf("%s has methods %q, want %q", rt, got, s.methods)
		}
	}
}
