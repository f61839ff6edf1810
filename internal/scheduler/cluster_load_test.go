package scheduler

import (
	"testing"

	"cocg/internal/gamesim"
	"cocg/internal/platform"
)

// meanHeadroom polls the fleet summary and returns the scalar the
// coordinator tier routes on.
func meanHeadroom(t *testing.T, p *CoCG, c *platform.Cluster) float64 {
	t.Helper()
	var fl platform.FleetLoad
	if !p.FleetLoadInto(c.Servers, &fl) {
		t.Fatal("CoCG did not produce a fleet summary")
	}
	return fl.MeanHeadroom
}

// TestClusterLoadEmptyClusterIsIdle pins the summary the coordinator tier
// reads: a cluster with no sessions forecasts (close to) full headroom.
func TestClusterLoadEmptyClusterIsIdle(t *testing.T) {
	p := policyFor(t, gamesim.Contra())
	c := platform.NewCluster(4, p)
	head := meanHeadroom(t, p, c)
	if head < 0.9 || head > 1 {
		t.Errorf("empty cluster headroom %.3f, want ~1", head)
	}
}

// TestClusterLoadDropsUnderLoad verifies the headroom summary is
// forecast-backed: hosting sessions must push it down, monotonically with
// the number of sessions, while staying inside [0, 1].
func TestClusterLoadDropsUnderLoad(t *testing.T) {
	spec := gamesim.DevilMayCry() // boss stages near 90 % GPU alone
	p := policyFor(t, spec)
	c := platform.NewCluster(1, p)
	srv := c.Servers[0]

	prev := meanHeadroom(t, p, c)
	for i := int64(0); i < 2; i++ {
		sess, err := gamesim.NewSession(spec, 2, 100+i)
		if err != nil {
			t.Fatal(err)
		}
		ctl, err := p.NewController(spec, 100+i)
		if err != nil {
			t.Fatal(err)
		}
		srv.Add(spec, sess, ctl)
		for j := 0; j < 30; j++ {
			c.Tick() // let controllers tick so demand forecasts are realistic
		}
		head := meanHeadroom(t, p, c)
		if head < 0 || head > 1 {
			t.Fatalf("headroom %.3f out of [0,1]", head)
		}
		if head >= prev {
			t.Errorf("headroom did not drop after session %d: %.3f -> %.3f", i, prev, head)
		}
		prev = head
	}
}
