package admit

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hash"
)

// testCapacity is the AIMD config every deterministic test scripts
// against: a round Initial, so that the shape the constants give it —
// bounds 15.625 and 64,000, probes of 62.5 every second, halving on a
// stall, a 100-packet bucket — keeps the expected sequences
// hand-checkable.
func testCapacity() CapacityConfig { return CapacityConfig{Initial: 1000} }

// TestAIMDSequence pins the controller's probe/backoff dynamics under a
// scripted clock: additive increase after every stall-free window,
// multiplicative decrease on stall feedback, at most one backoff per
// window, and clamping at both bounds.
func TestAIMDSequence(t *testing.T) {
	now := uint64(1e9)
	clock := func() uint64 { return now }
	c, err := NewController(testCapacity(), clock)
	if err != nil {
		t.Fatal(err)
	}
	step := func(at float64, stalled bool, wantCap float64) {
		t.Helper()
		now = uint64(at * 1e9)
		c.Observe(stalled)
		if got := c.Stats().Capacity; got != wantCap {
			t.Fatalf("t=%vs stalled=%v: capacity %v, want %v", at, stalled, got, wantCap)
		}
	}
	step(2.0, false, 1062.5)  // quiet window elapsed: probe +62.5
	step(2.5, true, 531.25)   // stall: ×0.5
	step(2.9, true, 531.25)   // second stall inside the window: absorbed
	step(3.6, true, 265.625)  // window elapsed: next backoff lands
	step(4.7, false, 328.125) // stall-free window: probing resumes
	step(5.8, false, 390.625)
	st := c.Stats()
	if st.Stalls != 3 || st.Backoffs != 2 || st.Probes != 3 {
		t.Fatalf("stats %+v, want stalls=3 backoffs=2 probes=3", st)
	}
	// Collapse to the floor: stalls every 1.1s halve until Min clamps.
	for i := 0; i < 6; i++ {
		now += uint64(1.1e9)
		c.Observe(true)
	}
	if got := c.Stats().Capacity; got != 15.625 {
		t.Fatalf("capacity after collapse %v, want the 15.625 floor", got)
	}
	// Quiet recovery: probes every window until the ceiling clamps, 1,024
	// probes up from the floor.
	for i := 0; i < 1100; i++ {
		now += uint64(1.1e9)
		c.Observe(false)
	}
	if got := c.Stats().Capacity; got != 64_000 {
		t.Fatalf("capacity after recovery %v, want the 64,000 ceiling", got)
	}
}

// TestGrantBucket pins the admission bucket: grants are whole while
// tokens cover the frame, fractional when they do not, and refill at
// the capacity rate up to the burst depth.
func TestGrantBucket(t *testing.T) {
	now := uint64(1e9)
	clock := func() uint64 { return now }
	c, err := NewController(testCapacity(), clock)
	if err != nil {
		t.Fatal(err)
	}
	if g := c.grantAt(now, 50); g != 1 { // bucket opens full: 1000 × 0.1s = 100
		t.Fatalf("grant within bucket: %v, want 1", g)
	}
	if g := c.grantAt(now, 100); math.Abs(g-0.5) > 1e-9 { // 50 tokens left of 100 asked
		t.Fatalf("fractional grant: %v, want 0.5", g)
	}
	if g := c.grantAt(now, 10); g != 0 {
		t.Fatalf("empty-bucket grant: %v, want 0", g)
	}
	now += uint64(0.05e9) // 50ms at 1000/s refills 50 tokens
	if g := c.grantAt(now, 50); g != 1 {
		t.Fatalf("post-refill grant: %v, want 1", g)
	}
	now += uint64(10e9) // a long idle caps at the burst depth, not 10k
	g := c.grantAt(now, 200)
	if want := c.Stats().Capacity * 0.1 / 200; math.Abs(g-want) > 1e-9 || g >= 1 {
		t.Fatalf("burst-capped grant: %v, want %v", g, want)
	}
}

// TestCapacityProperty is the controller's safety invariant under
// randomized load and stall patterns: cumulative expected admission
// never exceeds peak-capacity × (elapsed + burst window). Whatever is
// offered and however the sink stalls, admission is bounded by the
// estimate.
func TestCapacityProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := hash.NewRNG(seed)
		now := uint64(1e9)
		clock := func() uint64 { return now }
		c, err := NewController(testCapacity(), clock)
		if err != nil {
			t.Fatal(err)
		}
		start := now
		capMax := c.Stats().Capacity
		granted := 0.0 // cumulative expected packets admitted
		for i := 0; i < 2000; i++ {
			now += uint64(rng.Intn(20e6)) // 0-20ms between frames
			n := float64(rng.Intn(500))
			granted += n * c.grantAt(now, n)
			if rng.Bool(0.3) {
				c.Observe(rng.Bool(0.5))
			}
			if cap := c.Stats().Capacity; cap > capMax {
				capMax = cap
			}
			elapsed := float64(now-start) / 1e9
			bound := capMax * (elapsed + burstSeconds)
			if granted > bound+1e-6 {
				t.Fatalf("seed %d step %d: granted %v exceeds capacity bound %v (capMax %v, elapsed %vs)",
					seed, i, granted, bound, capMax, elapsed)
			}
		}
	}
}

// TestStarvation is the quota-isolation guarantee: a hog offering 10×
// its quota cannot push a victim below its own quota. Both tenants run
// over one Admitter (shared capacity controller included); the victim
// offers 20% above its quota and must land within 10% of it.
func TestStarvation(t *testing.T) {
	now := uint64(1e9)
	policy := Policy{
		Tenants: map[string]Quota{
			"hog":    {Rate: 50_000, Burst: 5_000},
			"victim": {Rate: 50_000, Burst: 5_000},
		},
		Capacity: CapacityConfig{Initial: 500_000},
		Seed:     7,
		Clock:    func() uint64 { return now },
	}
	a, err := NewAdmitter(policy)
	if err != nil {
		t.Fatal(err)
	}
	hog, victim := a.Tenant("hog"), a.Tenant("victim")
	rng := hash.NewRNG(42)
	offer := func(tn *Tenant, n int) {
		d := tn.Decide(n)
		kept := 0
		for i := 0; i < n; i++ {
			if tn.Keep(d, rng.Uint64(), rng.Uint64()) {
				kept++
			}
		}
		tn.Account(kept, n)
	}
	const seconds = 10
	for tick := 0; tick < seconds*1000; tick++ {
		now += 1e6        // 1ms
		offer(hog, 500)   // 500k pkt/s offered against a 50k quota
		offer(victim, 60) // 60k pkt/s offered against a 50k quota
	}
	snap := a.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("tenants %d, want 2", len(snap))
	}
	byName := map[string]TenantStats{}
	for _, s := range snap {
		byName[s.Tenant] = s
	}
	vRate := float64(byName["victim"].Admitted) / seconds
	if math.Abs(vRate-50_000) > 5_000 {
		t.Fatalf("victim throughput %v pkt/s, want within 10%% of its 50000 quota", vRate)
	}
	hRate := float64(byName["hog"].Admitted) / seconds
	if math.Abs(hRate-50_000) > 5_000 {
		t.Fatalf("hog shed to %v pkt/s, want within 10%% of its 50000 quota", hRate)
	}
	if byName["hog"].Shed == 0 || byName["victim"].Offered != seconds*60_000 {
		t.Fatalf("accounting off: %+v", byName)
	}
	if cs, ok := a.Capacity(); !ok || cs.Capacity < 500_000 {
		t.Fatalf("capacity stats %+v, %v", cs, ok)
	}
	// The decision sits on every session's frame loop: in its expensive
	// branch (over quota, the shared controller granting) it allocates
	// nothing.
	if got := testing.AllocsPerRun(1000, func() {
		now += 1e6
		if hog.Decide(500).Admit() {
			t.Fatal("the hog came back under quota")
		}
	}); got != 0 {
		t.Errorf("Decide over quota allocates %.2f times per frame, want 0", got)
	}
}

// TestHogShedInsideEnvelope is the QoS contract on the meter alone, under
// an injected clock: a hog offering 5× its quota in one frame per 10 ms
// tick, its four flows' packets riding together, is admitted no more than
// burst + quota × elapsed + the minimum-sample residue (+4σ of hash
// scatter), and each flow's kept count, rescaled by the published
// CountScale, lands inside the 4σ binomial envelope of what it offered. A
// victim at half its quota loses nothing.
func TestHogShedInsideEnvelope(t *testing.T) {
	const (
		tickNs    = 10_000_000
		ticks     = 60
		quota     = 10_000.0 // pkt/s, both tenants
		burst     = quota * tickNs / 1e9
		minSample = 0.01
		hogFlows  = 4
		hogPer    = 125 // per flow per tick: 50k pkt/s offered in all
		vicPkts   = 50  // per tick: 5k pkt/s
	)
	now := uint64(1e9)
	a, err := NewAdmitter(Policy{
		Tenants: map[string]Quota{
			"hog":    {Rate: quota, Burst: burst, MinSample: minSample},
			"victim": {Rate: quota, Burst: burst, MinSample: minSample},
		},
		Seed:  0x7E4A7,
		Clock: func() uint64 { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	hog, victim := a.Tenant("hog"), a.Tenant("victim")
	rng := hash.NewRNG(3)
	kept := make([]int, hogFlows)
	for tick := 0; tick < ticks; tick++ {
		now += tickNs
		d, n := hog.Decide(hogFlows*hogPer), 0
		for f := 0; f < hogFlows; f++ {
			for i := 0; i < hogPer; i++ {
				if hog.Keep(d, uint64(f+1), rng.Uint64()) {
					kept[f]++
					n++
				}
			}
		}
		hog.Account(n, hogFlows*hogPer)
		if d := victim.Decide(vicPkts); !d.Admit() {
			t.Fatalf("tick %d: victim inside its quota sampled at p=%v", tick, d.P)
		}
		victim.Account(vicPkts, vicPkts)
	}

	st := hog.Stats()
	bound := burst + quota*ticks*tickNs/1e9 + minSample*float64(st.Offered) + 4*math.Sqrt(float64(st.Offered)*0.25)
	if st.Shed == 0 || float64(st.Admitted) > bound {
		t.Fatalf("hog admitted %d of %d (shed %d), quota bounds it at %.0f", st.Admitted, st.Offered, st.Shed, bound)
	}
	offered := float64(ticks * hogPer)
	envelope := 4 * math.Sqrt((1-st.SampleRate)/(st.SampleRate*offered))
	for f, k := range kept {
		if rel := math.Abs(float64(k)*st.CountScale-offered) / offered; rel > envelope {
			t.Errorf("hog flow %d: rescaled count off by %.4f of %v offered, envelope %.4f", f, rel, offered, envelope)
		}
	}
	if vs := victim.Stats(); vs.Shed != 0 || vs.Offered != ticks*vicPkts {
		t.Fatalf("victim accounting %+v", vs)
	}
}

// TestDecideDeterministic pins the quota meter's frame-by-frame
// decisions under a scripted clock.
func TestDecideDeterministic(t *testing.T) {
	now := uint64(1e9)
	a, err := NewAdmitter(Policy{
		Default: Quota{Rate: 1000, Burst: 100, MinSample: 0.05},
		Clock:   func() uint64 { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	tn := a.Tenant("") // empty name resolves to the default tenant
	if tn.name != DefaultTenant {
		t.Fatalf("tenant name %q, want %q", tn.name, DefaultTenant)
	}
	if d := tn.Decide(100); d.P != 1 { // opening burst covers it
		t.Fatalf("burst frame: p=%v, want 1", d.P)
	}
	if d := tn.Decide(60); d.P != 0.05 { // empty bucket → the floor
		t.Fatalf("drained frame: p=%v, want the 0.05 floor", d.P)
	}
	now += uint64(0.03e9) // 30ms at 1000/s = 30 tokens
	if d := tn.Decide(60); math.Abs(d.P-0.5) > 1e-9 {
		t.Fatalf("partial frame: p=%v, want 0.5", d.P)
	}
	now += uint64(3600e9) // an hour idle refills to burst, not 3.6M
	if d := tn.Decide(101); math.Abs(d.P-100.0/101) > 1e-12 {
		t.Fatalf("capped refill: p=%v, want 100/101", d.P)
	}
}

// TestKeepReproducible: the shed subset is a pure function of (seed,
// tenant, flow, pktID, p) — and tracks p closely in proportion.
func TestKeepReproducible(t *testing.T) {
	mk := func() *Tenant {
		a, err := NewAdmitter(Policy{Default: Quota{Rate: 1}, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return a.Tenant("team-a")
	}
	t1, t2 := mk(), mk()
	d := Decision{P: 0.3, threshold: Threshold32(0.3)}
	kept := 0
	for pkt := uint64(0); pkt < 20000; pkt++ {
		k1 := t1.Keep(d, 7, pkt)
		if k2 := t2.Keep(d, 7, pkt); k1 != k2 {
			t.Fatalf("pkt %d: verdicts differ across identically-seeded meters", pkt)
		}
		if k1 {
			kept++
		}
	}
	if rate := float64(kept) / 20000; math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("keep rate %v, want ≈0.3", rate)
	}
	// A different tenant (different derived seed) sheds a different subset.
	a, _ := NewAdmitter(Policy{Default: Quota{Rate: 1}, Seed: 99})
	other := a.Tenant("team-b")
	same := 0
	for pkt := uint64(0); pkt < 20000; pkt++ {
		if t1.Keep(d, 7, pkt) == other.Keep(d, 7, pkt) {
			same++
		}
	}
	if same == 20000 {
		t.Fatal("two tenants shed identical subsets — seeds not derived per tenant")
	}
}

func TestThreshold32(t *testing.T) {
	if Threshold32(1) != 1<<32 || Threshold32(1.5) != 1<<32 {
		t.Fatal("p≥1 must admit everything")
	}
	if Threshold32(0) != 0 || Threshold32(-1) != 0 {
		t.Fatal("p≤0 must admit nothing")
	}
	if got := Threshold32(0.5); got != 1<<31 {
		t.Fatalf("Threshold32(0.5) = %d, want %d", got, uint64(1)<<31)
	}
}

func TestParsePolicy(t *testing.T) {
	p, err := ParsePolicy("hog=5000/20000,*=1e6,batch=500/500/0.05")
	if err != nil {
		t.Fatal(err)
	}
	if p.Default.Rate != 1e6 {
		t.Fatalf("default rate %v", p.Default.Rate)
	}
	if q := p.Tenants["hog"]; q.Rate != 5000 || q.Burst != 20000 {
		t.Fatalf("hog quota %+v", q)
	}
	if q := p.Tenants["batch"]; q.MinSample != 0.05 {
		t.Fatalf("batch quota %+v", q)
	}
	if !p.Enabled() {
		t.Fatal("parsed policy reports disabled")
	}
	if p, err := ParsePolicy("  "); err != nil || p.Enabled() {
		t.Fatalf("empty spec: %v %+v", err, p)
	}
	for _, bad := range []string{"noequals", "=5", "a=xyz", "a=1/2/3/4", "a=1,a=2", "a=-5"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Fatalf("spec %q parsed without error", bad)
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	for _, bad := range []Policy{
		{Default: Quota{Rate: math.Inf(1)}},
		{Default: Quota{MinSample: 1.5}},
		{Tenants: map[string]Quota{"": {Rate: 1}}},
		{Capacity: CapacityConfig{Initial: -5}},
		{Capacity: CapacityConfig{Initial: math.Inf(1)}},
	} {
		if _, err := bad.Validate(); err == nil {
			t.Fatalf("policy %+v validated", bad)
		}
		if _, err := NewAdmitter(bad); err == nil {
			t.Fatalf("NewAdmitter accepted %+v", bad)
		}
	}
	norm, err := Policy{Default: Quota{Rate: 500}}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Default.Burst != 500 || norm.Default.MinSample != DefaultMinSample {
		t.Fatalf("defaults not filled: %+v", norm.Default)
	}
	// The zero policy is valid, disabled, and yields a nil Admitter whose
	// whole surface is admit-everything no-ops.
	a, err := NewAdmitter(Policy{})
	if err != nil || a != nil {
		t.Fatalf("zero policy: admitter %v, err %v", a, err)
	}
	tn := a.Tenant("anyone")
	if tn != nil {
		t.Fatal("nil admitter returned a meter")
	}
	if d := tn.Decide(1000); !d.Admit() {
		t.Fatal("nil meter must admit everything")
	}
	tn.Account(1, 1)
	tn.AddSession(1)
	a.ReportStall(true)
	if s := a.Snapshot(); s != nil {
		t.Fatalf("nil admitter snapshot %v", s)
	}
}

func TestTenantStatsEnvelope(t *testing.T) {
	s := TenantStats{Tenant: "a", Offered: 1000, Admitted: 250, Shed: 750}
	s.derive()
	if s.SampleRate != 0.25 || s.CountScale != 4 {
		t.Fatalf("envelope %+v", s)
	}
	want := math.Sqrt(0.75 * math.Log(2/0.05) / 500)
	if math.Abs(s.QuantileRankError-want) > 1e-12 {
		t.Fatalf("rank error %v, want %v", s.QuantileRankError, want)
	}
	// Nothing shed → no inflation at all.
	clean := TenantStats{Tenant: "b", Offered: 500, Admitted: 500}
	clean.derive()
	if clean.SampleRate != 1 || clean.CountScale != 1 || clean.QuantileRankError != 0 {
		t.Fatalf("clean envelope %+v", clean)
	}
	// Everything shed → scale is meaningless (0), rank error saturates.
	dark := TenantStats{Offered: 10}
	dark.derive()
	if dark.CountScale != 0 || dark.QuantileRankError != 1 {
		t.Fatalf("dark envelope %+v", dark)
	}

	s.Accumulate(TenantStats{Offered: 1000, Admitted: 750, Shed: 250, Sessions: 2})
	if s.Offered != 2000 || s.Admitted != 1000 || s.SampleRate != 0.5 || s.CountScale != 2 {
		t.Fatalf("accumulated envelope %+v", s)
	}

	merged := MergeTenantStats(
		[]TenantStats{{Tenant: "b", Offered: 10, Admitted: 10}},
		[]TenantStats{{Tenant: "a", Offered: 4, Admitted: 2}, {Tenant: "b", Offered: 10, Admitted: 5}},
	)
	if len(merged) != 2 || merged[0].Tenant != "a" || merged[1].Tenant != "b" {
		t.Fatalf("merge %+v", merged)
	}
	if merged[1].Admitted != 15 || merged[1].CountScale != 20.0/15 {
		t.Fatalf("merge totals %+v", merged[1])
	}
}

// TestAdmitterSnapshotOrder: snapshots list tenants sorted by name, and
// meters persist across lookups (accounting survives reconnects).
func TestAdmitterSnapshotOrder(t *testing.T) {
	a, err := NewAdmitter(Policy{Default: Quota{Rate: 100}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zeta", "alpha", "mid"} {
		a.Tenant(name).AddSession(1)
	}
	if again := a.Tenant("zeta"); again != a.Tenant("zeta") {
		t.Fatal("meter identity not stable across lookups")
	}
	names := []string{}
	for _, s := range a.Snapshot() {
		names = append(names, s.Tenant)
	}
	if strings.Join(names, ",") != "alpha,mid,zeta" {
		t.Fatalf("snapshot order %v", names)
	}
}
