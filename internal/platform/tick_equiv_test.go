package platform_test

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"cocg/internal/core"
	"cocg/internal/gamesim"
	"cocg/internal/platform"
	"cocg/internal/resources"
	"cocg/internal/simclock"
)

// Differential coverage for Server.tickAt's per-second certificate: two
// identically built servers, one deciding per second between the fused pass
// and the general path, the other forced down the general path every second,
// compared bitwise after every second.

var (
	equivOnce sync.Once
	equivSys  *core.System
	equivErr  error
)

// equivSystem trains the five-game system once per test binary (small corpus:
// the tick only needs controllers that behave like the real ones).
func equivSystem(tb testing.TB) *core.System {
	tb.Helper()
	equivOnce.Do(func() {
		equivSys, equivErr = core.Train(gamesim.AllGames(),
			core.TrainOptions{Players: 8, SessionsPerPlayer: 3, Seed: 31, Workers: 1})
	})
	if equivErr != nil {
		tb.Fatal(equivErr)
	}
	return equivSys
}

// equivPolicies are the schemes the differential runs under: the paper's
// (regulating, adaptive controllers), the reactive baseline (adaptive, no-op
// regulator) and GAugur (fixed hard caps sized from mean consumption).
var equivPolicies = []core.PolicyKind{core.PolicyCoCG, core.PolicyReactive, core.PolicyGAugur}

// host describes one session to place on both servers of a pair. A nil ctl
// asks the policy for its own controller.
type host struct {
	spec   *gamesim.GameSpec
	script int
	seed   int64
	ctl    func() platform.Controller
}

// funcCtl is a foreign controller: its request is whatever f returns for the
// second and the measured utilization.
type funcCtl struct {
	sec     int
	loading bool
	f       func(sec int, util resources.Vector) resources.Vector
}

func (c *funcCtl) Name() string  { return "func" }
func (c *funcCtl) Loading() bool { return c.loading }
func (c *funcCtl) Tick(util resources.Vector) resources.Vector {
	c.sec++
	return c.f(c.sec, util)
}

// tickPair is the two servers: srv[0] takes the certificate, srv[1] is forced
// general. Each has its own policy instance and its own sessions/controllers
// built from the same seeds.
type tickPair struct {
	clock *simclock.Clock
	srv   [2]*platform.Server
	pol   [2]platform.Policy
}

func newTickPair(tb testing.TB, kind core.PolicyKind, capacity resources.Vector, hosts ...host) *tickPair {
	tb.Helper()
	sys := equivSystem(tb)
	p := &tickPair{clock: &simclock.Clock{}}
	for i := range p.srv {
		p.srv[i] = platform.NewServer(0, capacity, p.clock)
		p.pol[i] = sys.Policy(kind)
	}
	p.srv[1].ForceGeneralTick()
	for _, h := range hosts {
		p.add(tb, h)
	}
	return p
}

func (p *tickPair) add(tb testing.TB, h host) {
	tb.Helper()
	for i, srv := range p.srv {
		sess, err := gamesim.NewPlayerSession(h.spec, h.script, h.seed*11, h.seed)
		if err != nil {
			tb.Fatal(err)
		}
		var ctl platform.Controller
		if h.ctl != nil {
			ctl = h.ctl()
		} else if ctl, err = p.pol[i].NewController(h.spec, h.seed*11); err != nil {
			tb.Fatal(err)
		}
		srv.Add(h.spec, sess, ctl)
	}
}

// tick advances both servers one second and requires bit-identical state.
// It reports whether srv[0] took the fused pass.
func (p *tickPair) tick(tb testing.TB) bool {
	tb.Helper()
	_, before := p.srv[0].TickCounts()
	p.srv[0].Tick(p.pol[0])
	p.srv[1].Tick(p.pol[1])
	p.clock.Advance(1)
	a, b := fingerprint(p.srv[0]), fingerprint(p.srv[1])
	if len(a.vals) != len(b.vals) {
		tb.Fatalf("t=%d: fingerprints differ in length: %d vs %d", p.clock.Now(), len(a.vals), len(b.vals))
	}
	for i := range a.vals {
		if a.vals[i] != b.vals[i] {
			l := a.labels[i]
			tb.Fatalf("t=%d: hosted %d %s[%d] differs: certificate side %#x, general side %#x",
				p.clock.Now(), l.hosted, l.field, l.i, a.vals[i], b.vals[i])
		}
	}
	if !bytes.Equal(encodeRecords(p.srv[0].Records), encodeRecords(p.srv[1].Records)) {
		tb.Fatalf("t=%d: records differ", p.clock.Now())
	}
	secA, _ := p.srv[0].TickCounts()
	secB, unB := p.srv[1].TickCounts()
	if secA != secB || unB != 0 {
		tb.Fatalf("t=%d: tick counts: certificate side %d s, general side %d s with %d uncontended (want 0)",
			p.clock.Now(), secA, secB, unB)
	}
	_, after := p.srv[0].TickCounts()
	return after != before
}

// serverPrint is everything observable about a server except its records, as
// raw bits so that -0 and NaN payloads count. Labels are formatted only when a
// value differs; hosted -1 is the server itself.
type serverPrint struct {
	labels []printLabel
	vals   []uint64
}

type printLabel struct {
	hosted int
	field  string
	i      int
}

func (f *serverPrint) ints(hosted int, field string, vs ...uint64) {
	for i, v := range vs {
		f.labels = append(f.labels, printLabel{hosted, field, i})
		f.vals = append(f.vals, v)
	}
}

func (f *serverPrint) floats(hosted int, field string, vs ...float64) {
	for i, v := range vs {
		f.labels = append(f.labels, printLabel{hosted, field, i})
		f.vals = append(f.vals, math.Float64bits(v))
	}
}

func (f *serverPrint) vec(hosted int, field string, v resources.Vector) {
	f.floats(hosted, field, v[:]...)
}

func fingerprint(srv *platform.Server) *serverPrint {
	f := &serverPrint{}
	ticks, _ := srv.TickCounts()
	f.ints(-1, "rev/ticks/hosted/records", srv.Rev(), ticks, uint64(srv.NumHosted()), uint64(len(srv.Records)))
	f.vec(-1, "RequestTotal", srv.RequestTotal())
	f.vec(-1, "Utilization", srv.Utilization())
	f.vec(-1, "PeakUtilization", srv.PeakUtilization())
	for i, h := range srv.Hosted {
		f.ints(i, "id", uint64(h.ID))
		f.vec(i, "Request", h.Request)
		f.vec(i, "Granted", h.Granted)
		f.vec(i, "lastGrant", h.LastGrant())
		s := h.Session
		done := uint64(0)
		if s.Done() {
			done = 1
		}
		f.ints(i, "phase/done/stage/cluster/elapsed/exec/load/horizon", uint64(s.Phase()), done,
			uint64(s.StageType()), uint64(s.Cluster()), uint64(s.Elapsed()), uint64(s.ExecSeconds()),
			uint64(s.LoadSeconds()), uint64(s.BulkHorizon()))
		f.floats(i, "loadExtended/lastFPS/lastSat/avgFPS/fpsRatio/goodFPS/p5/p50/degraded",
			s.LoadExtended(), s.LastFPS(), s.LastSatisfaction(), s.AvgFPS(), s.FPSRatio(),
			s.GoodFPSFraction(), s.FPSPercentile(5), s.FPSPercentile(50), s.DegradedFraction())
		// The next second's demand also proves the session RNGs agree.
		f.vec(i, "next Demand", s.Demand())
		f.vec(i, "DemandEnvelope", s.DemandEnvelope())
	}
	return f
}

// demandsOf returns this second's realised demands (stable until the tick).
func demandsOf(srv *platform.Server) []resources.Vector {
	out := make([]resources.Vector, len(srv.Hosted))
	for i, h := range srv.Hosted {
		out[i] = h.Session.Demand()
	}
	return out
}

// TestTickUncontendedMatchesGeneral runs packed and light servers to
// completion under every policy and requires the certificate side to equal
// the general side after every second, with both paths taken and (where the
// policy's requests ever cover a shutdown loading) a session finishing on a
// fused second.
func TestTickUncontendedMatchesGeneral(t *testing.T) {
	games := gamesim.AllGames()
	for _, kind := range equivPolicies {
		for _, packed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/packed=%v", kind, packed), func(t *testing.T) {
				var hosts []host
				if packed {
					// Six sessions, heavy games included: over capacity at peaks,
					// over the regulator's margin most of the time.
					for i := 0; i < 6; i++ {
						g := games[i%len(games)]
						hosts = append(hosts, host{spec: g, script: i % len(g.Scripts), seed: int64(100 + i)})
					}
				} else {
					hosts = []host{
						{spec: games[4], script: 1, seed: 7},
						{spec: games[2], script: 0, seed: 8},
					}
				}
				p := newTickPair(t, kind, resources.FullServer, hosts...)
				finishedFused := false
				for sec := 0; p.srv[0].NumHosted() > 0; sec++ {
					if sec > 6*3600 {
						t.Fatal("sessions did not finish in six virtual hours")
					}
					recs := len(p.srv[0].Records)
					fused := p.tick(t)
					if fused && len(p.srv[0].Records) > recs {
						finishedFused = true
					}
				}
				seconds, uncontended := p.srv[0].TickCounts()
				t.Logf("%d of %d seconds uncontended, %d records", uncontended, seconds, len(p.srv[0].Records))
				if uncontended == 0 || uncontended == seconds {
					t.Errorf("one path never ran: %d of %d seconds uncontended", uncontended, seconds)
				}
				// GAugur's mean-sized hard caps never cover the CPU demand of a
				// shutdown loading, so its sessions always finish uncovered.
				if !finishedFused && kind != core.PolicyGAugur {
					t.Error("no session finished on a fused second")
				}
				if len(p.srv[0].Records) != len(hosts) {
					t.Errorf("%d records, want %d", len(p.srv[0].Records), len(hosts))
				}
			})
		}
	}
}

// TestTickCertificateEdges pins the boundary cases of the certificate, each
// asserted to have actually occurred on the side it belongs to.
func TestTickCertificateEdges(t *testing.T) {
	contra, dmc := gamesim.Contra(), gamesim.DevilMayCry()
	ample := func() platform.Controller {
		return &funcCtl{f: func(int, resources.Vector) resources.Vector { return resources.FullServer }}
	}

	t.Run("demand equal to request", func(t *testing.T) {
		// The controller requests exactly what it measured. On the first second
		// the measurement is the demand itself (equality, fused); afterwards it
		// is the demand capped by the last request, so any rise is uncovered.
		echo := func() platform.Controller {
			return &funcCtl{f: func(_ int, util resources.Vector) resources.Vector { return util }}
		}
		p := newTickPair(t, core.PolicyReactive, resources.FullServer,
			host{spec: contra, script: 0, seed: 3, ctl: echo}, host{spec: dmc, script: 0, seed: 4, ctl: echo})
		equalFused, general := 0, 0
		for sec := 0; sec < 400; sec++ {
			d := demandsOf(p.srv[0])
			if !p.tick(t) {
				general++
				continue
			}
			for i, h := range p.srv[0].Hosted {
				if i < len(d) && h.Request == d[i] {
					equalFused++
				}
			}
		}
		if equalFused == 0 || general == 0 {
			t.Errorf("equalFused=%d general=%d, want both > 0", equalFused, general)
		}
	})

	t.Run("zero demand dimension", func(t *testing.T) {
		// A game that uses no GPU memory at all and, with jitter clamped at
		// zero, no GPU on about half its seconds; requested exactly (0/0).
		spec := gamesim.Contra()
		for i := range spec.Clusters {
			spec.Clusters[i].Demand[resources.GPU] = 0
			spec.Clusters[i].Demand[resources.GPUMem] = 0
		}
		spec.Clusters[1].Jitter = 0 // execution seconds demand exactly 0 GPU
		exact := func() platform.Controller {
			return &funcCtl{f: func(int, resources.Vector) resources.Vector { return resources.New(100, 0, 100, 100) }}
		}
		p := newTickPair(t, core.PolicyReactive, resources.FullServer,
			host{spec: spec, script: 2, seed: 5, ctl: exact}, host{spec: spec, script: 1, seed: 6, ctl: ample})
		zeroFused, general := 0, 0
		for p.srv[0].NumHosted() > 0 {
			d := demandsOf(p.srv[0])
			if !p.tick(t) {
				general++ // loading seconds jitter above the zero GPU request
			} else if d[0][resources.GPU] == 0 {
				zeroFused++
			}
		}
		if zeroFused == 0 || general == 0 {
			t.Errorf("zeroFused=%d general=%d, want both > 0", zeroFused, general)
		}
	})

	t.Run("NaN and negative-zero requests", func(t *testing.T) {
		spec := gamesim.Contra()
		for i := range spec.Clusters {
			spec.Clusters[i].Demand[resources.GPUMem] = 0
			spec.Clusters[i].Jitter = 0
		}
		odd := func() platform.Controller {
			return &funcCtl{f: func(sec int, _ resources.Vector) resources.Vector {
				r := resources.New(100, 100, math.Copysign(0, -1), 100)
				if sec%3 == 0 {
					r[resources.CPU] = math.NaN()
				}
				return r
			}}
		}
		p := newTickPair(t, core.PolicyCoCG, resources.FullServer,
			host{spec: spec, script: 0, seed: 9, ctl: odd}, host{spec: contra, script: 0, seed: 10, ctl: ample})
		for sec := 1; sec <= 120; sec++ {
			fused := p.tick(t)
			if nan := sec%3 == 0; fused == nan {
				t.Fatalf("t=%d: fused=%v with NaN request=%v", sec, fused, nan)
			}
			if h := p.srv[0].Hosted[0]; !math.Signbit(h.Request[resources.GPUMem]) {
				t.Fatalf("t=%d: -0 request was normalised to %v", sec, h.Request[resources.GPUMem])
			}
		}
	})

	t.Run("demand total equal to capacity", func(t *testing.T) {
		p := newTickPair(t, core.PolicyGAugur, resources.FullServer,
			host{spec: dmc, script: 1, seed: 11, ctl: ample}, host{spec: contra, script: 2, seed: 12, ctl: ample},
			host{spec: contra, script: 0, seed: 13, ctl: ample})
		for sec := 0; sec < 300 && p.srv[0].NumHosted() > 0; sec++ {
			var total resources.Vector
			for _, d := range demandsOf(p.srv[0]) {
				total = total.Add(d)
			}
			// Even seconds: capacity is exactly the in-order demand total.
			// Odd seconds: one ulp short in one dimension.
			capacity := total
			if sec%2 == 1 {
				capacity[sec%4] = math.Nextafter(capacity[sec%4], 0)
			}
			p.srv[0].Capacity, p.srv[1].Capacity = capacity, capacity
			if fused := p.tick(t); fused != (sec%2 == 0) {
				t.Fatalf("t=%d: fused=%v, want %v", sec, fused, sec%2 == 0)
			}
		}
	})

	t.Run("regulation uncovers a loading game", func(t *testing.T) {
		// Requests sum past CoCG's margin while demands fit the server: the
		// regulator cuts the loading game's request below its demand, so the
		// second is uncovered only because of regulation.
		flat := func(loading bool) func() platform.Controller {
			return func() platform.Controller {
				return &funcCtl{loading: loading,
					f: func(int, resources.Vector) resources.Vector { return resources.Uniform(60) }}
			}
		}
		p := newTickPair(t, core.PolicyCoCG, resources.FullServer,
			host{spec: dmc, script: 0, seed: 14, ctl: flat(true)}, host{spec: contra, script: 0, seed: 15, ctl: flat(false)})
		d := demandsOf(p.srv[0])
		if !d[0].Add(d[1]).Fits(resources.FullServer) || !d[0].Fits(resources.Uniform(60)) {
			t.Fatalf("fixture: demands %v + %v must fit the server and the unregulated request", d[0], d[1])
		}
		if p.tick(t) {
			t.Fatal("second was fused although regulation cut the loading game's request")
		}
		if h := p.srv[0].Hosted[0]; !(h.Request[resources.CPU] < d[0][resources.CPU]) {
			t.Fatalf("regulated request %v still covers demand %v", h.Request, d[0])
		}
		for sec := 0; sec < 200; sec++ {
			p.tick(t)
		}
	})
}

// FuzzTickEquivalence drives the pair over fuzzed (seed, hosted mix,
// capacity, seconds): the policy, the games, how many are hosted, a capacity
// between 40 % and 139 % of a server and a late arrival all come from the
// inputs.
func FuzzTickEquivalence(f *testing.F) {
	f.Add(int64(1), uint32(0x12345), uint8(60), uint16(300))
	f.Add(int64(2), uint32(0xfedcba), uint8(0), uint16(500))
	f.Add(int64(3), uint32(7), uint8(99), uint16(200))
	games := gamesim.AllGames()
	f.Fuzz(func(t *testing.T, seed int64, mix uint32, capPct uint8, seconds uint16) {
		kind := equivPolicies[int(mix%3)]
		mix /= 3
		n := 1 + int(mix%6)
		mix /= 6
		pick := func(i int) host {
			g := games[int(mix>>(3*uint(i))&7)%len(games)]
			return host{spec: g, script: (i + int(seed&0xff)) % len(g.Scripts), seed: seed%(1<<40) + int64(i)}
		}
		var hosts []host
		for i := 0; i < n; i++ {
			hosts = append(hosts, pick(i))
		}
		p := newTickPair(t, kind, resources.Uniform(40+float64(capPct%100)), hosts...)
		total := int(seconds % 700)
		for sec := 0; sec < total; sec++ {
			if sec == total/2 {
				p.add(t, pick(n))
			}
			p.tick(t)
		}
	})
}
