package admit

import (
	"math"
	"sort"
	"sync"

	"repro/internal/hash"
)

// Admitter is the per-collector admission front: one Tenant meter per
// tenant name, all sharing one AIMD capacity controller. Sessions
// resolve their Tenant at handshake and consult it per frame; meters
// outlive sessions, so a tenant's accounting (and its error envelope)
// survives reconnects.
type Admitter struct {
	policy Policy
	ctrl   *Controller

	mu      sync.Mutex
	tenants map[string]*Tenant
}

// NewAdmitter validates policy and builds the admission front. Returns
// nil (admit everything, account nothing) for a disabled policy —
// callers may use a nil *Admitter freely.
func NewAdmitter(policy Policy) (*Admitter, error) {
	if !policy.Enabled() {
		if _, err := policy.Validate(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	p, err := policy.Validate()
	if err != nil {
		return nil, err
	}
	ctrl, err := NewController(p.Capacity, p.Clock)
	if err != nil {
		return nil, err
	}
	return &Admitter{policy: p, ctrl: ctrl, tenants: map[string]*Tenant{}}, nil
}

// Tenant resolves (lazily creating) the meter for a tenant name; the
// empty name is DefaultTenant. Nil receiver returns nil — the admit-
// everything meter.
func (a *Admitter) Tenant(name string) *Tenant {
	if a == nil {
		return nil
	}
	if name == "" {
		name = DefaultTenant
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tenants[name]
	if !ok {
		q := a.policy.quotaFor(name)
		t = &Tenant{
			name:  name,
			quota: q,
			seed:  hash.Seed(a.policy.Seed).Derive(hash.Seed(0x7E4A47).HashString(name)),
			clock: a.policy.Clock,
			ctrl:  a.ctrl,
		}
		t.last = t.clock()
		t.tokens = q.Burst
		a.tenants[name] = t
	}
	return t
}

// ReportStall feeds one sink hand-off's stall verdict to the capacity
// controller (no-op without one, or on a nil Admitter).
func (a *Admitter) ReportStall(stalled bool) {
	if a == nil {
		return
	}
	a.ctrl.Observe(stalled)
}

// Capacity returns the shared controller's telemetry and whether a
// controller is configured at all.
func (a *Admitter) Capacity() (CapacityStats, bool) {
	if a == nil || a.ctrl == nil {
		return CapacityStats{}, false
	}
	return a.ctrl.Stats(), true
}

// Snapshot returns every known tenant's stats, sorted by name.
func (a *Admitter) Snapshot() []TenantStats {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := make([]TenantStats, 0, len(a.tenants))
	for _, t := range a.tenants {
		out = append(out, t.Stats())
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Tenant is one tenant's admission meter: a token bucket at the quota
// rate, the seeded shedding hash, and the cumulative offered/admitted
// accounting the error envelope derives from.
type Tenant struct {
	name  string
	quota Quota
	seed  hash.Seed
	clock Clock
	ctrl  *Controller

	mu       sync.Mutex
	tokens   float64
	last     uint64
	sessions int64
	offered  uint64
	admitted uint64
	shed     uint64
}

// Decision is one frame's admission verdict.
type Decision struct {
	// P is the sampling probability: 1 admits the frame whole, lower
	// values shed probabilistically via Keep.
	P float64
	// threshold is Threshold32(P), precomputed for the per-packet test.
	threshold uint64
}

// Admit reports whether the decision admits everything.
func (d Decision) Admit() bool { return d.P >= 1 }

// Decide opens one frame of n offered packets: it refills the quota
// bucket, draws from it, and — when the bucket cannot cover the frame —
// returns the sampling probability to apply, floored at the quota's
// MinSample and gated by the shared capacity controller. A nil meter
// admits everything. The hot path is a handful of float ops under one
// uncontended mutex and allocates nothing (TestStarvation).
func (t *Tenant) Decide(n int) Decision {
	if t == nil || n <= 0 {
		return Decision{P: 1, threshold: 1 << 32}
	}
	fn := float64(n)
	now := t.clock()
	t.mu.Lock()
	t.offered += uint64(n)
	p := 1.0
	if t.quota.Rate > 0 {
		if now > t.last {
			if t.tokens += t.quota.Rate * float64(now-t.last) / 1e9; t.tokens > t.quota.Burst {
				t.tokens = t.quota.Burst
			}
			t.last = now
		}
		if t.tokens >= fn {
			t.tokens -= fn
		} else {
			if p = t.tokens / fn; p < t.quota.MinSample {
				p = t.quota.MinSample
			}
			t.tokens = 0
		}
	}
	t.mu.Unlock()
	if t.ctrl != nil {
		p *= t.ctrl.grantAt(now, fn*p)
	}
	if p >= 1 {
		return Decision{P: 1, threshold: 1 << 32}
	}
	return Decision{P: p, threshold: Threshold32(p)}
}

// Keep applies the decision to one packet: admitted iff the seeded hash
// of (flow, packet ID) falls under the decision's threshold. The verdict
// is a pure function of (policy seed, tenant name, flow, pktID, P) —
// identical runs shed identical packets however their connections
// interleave. Only meaningful on a meter the decision came from.
func (t *Tenant) Keep(d Decision, flow, pktID uint64) bool {
	if d.P >= 1 {
		return true
	}
	return t.seed.Hash2(flow, pktID)>>32 < d.threshold
}

// Account records a frame's realized outcome: kept of total packets
// survived the decision. Nil meters ignore it.
func (t *Tenant) Account(kept, total int) {
	if t == nil || total <= 0 {
		return
	}
	t.mu.Lock()
	t.admitted += uint64(kept)
	t.shed += uint64(total - kept)
	t.mu.Unlock()
}

// AddSession adjusts the live-session count (±1 at session open/close).
func (t *Tenant) AddSession(delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sessions += delta
	t.mu.Unlock()
}

// Stats returns the tenant's point-in-time accounting and derived
// error envelope.
func (t *Tenant) Stats() TenantStats {
	t.mu.Lock()
	s := TenantStats{
		Tenant:    t.name,
		Sessions:  t.sessions,
		Offered:   t.offered,
		Admitted:  t.admitted,
		Shed:      t.shed,
		QuotaRate: t.quota.Rate,
	}
	t.mu.Unlock()
	s.derive()
	return s
}

// quantileDelta is the failure probability the quantile-rank widening is
// quoted at: the published ε holds with probability ≥ 1-δ.
const quantileDelta = 0.05

// TenantStats is one tenant's accounting and error envelope, served
// under the "tenants" section of /stats.
//
// The envelope quantifies what shedding cost each query kind:
//
//   - Count-style answers (per-packet counters, utilization series,
//     frequency sample counts) were computed from an Admitted-sized
//     sample of an Offered-sized population, so their expectations scale
//     by CountScale = Offered/Admitted = 1/p̂.
//   - KLL-backed quantile answers (latency percentiles) keep their
//     sketch accuracy but gain sampling error: by Hoeffding, the rank of
//     a reported quantile is within QuantileRankError =
//     sqrt((1-p̂)·ln(2/δ)/(2·Admitted)) of the true rank with
//     probability ≥ 1-δ (δ = 0.05). The (1-p̂) factor is the
//     finite-population correction — it vanishes when nothing was shed.
type TenantStats struct {
	Tenant   string `json:"tenant"`
	Sessions int64  `json:"sessions"`
	// Offered/Admitted/Shed count packets over the tenant's lifetime;
	// Offered = Admitted + Shed.
	Offered  uint64 `json:"offered"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	// QuotaRate is the configured sustained budget in packets/second
	// (0 = unlimited).
	QuotaRate float64 `json:"quota_rate"`
	// SampleRate is p̂ = Admitted/Offered (1 when nothing was offered).
	SampleRate float64 `json:"sample_rate"`
	// CountScale is 1/p̂ — multiply count-style answers by it. 0 when
	// everything offered was shed (no data to scale).
	CountScale float64 `json:"count_scale"`
	// QuantileRankError is the rank-space half-width ε added to
	// KLL-backed quantile answers by sampling, at δ = 0.05.
	QuantileRankError float64 `json:"quantile_rank_error"`
}

// derive recomputes the envelope fields from the counters.
func (s *TenantStats) derive() {
	s.SampleRate, s.CountScale, s.QuantileRankError = 1, 1, 0
	if s.Offered == 0 {
		return
	}
	s.SampleRate = float64(s.Admitted) / float64(s.Offered)
	if s.Admitted == 0 {
		s.CountScale = 0
		s.QuantileRankError = 1
		return
	}
	s.CountScale = float64(s.Offered) / float64(s.Admitted)
	s.QuantileRankError = math.Sqrt((1 - s.SampleRate) * math.Log(2/quantileDelta) / (2 * float64(s.Admitted)))
}

// Accumulate folds another tenant's counters into s (the federation
// frontend summing one tenant's meters across fleet members) and
// recomputes the derived envelope. Quota rates add: each member
// enforces its own share.
func (s *TenantStats) Accumulate(o TenantStats) {
	s.Sessions += o.Sessions
	s.Offered += o.Offered
	s.Admitted += o.Admitted
	s.Shed += o.Shed
	s.QuotaRate += o.QuotaRate
	s.derive()
}

// MergeTenantStats folds src into dst by tenant name (both and the
// result sorted by name) — the frontend's rule for presenting fleet-wide
// per-tenant totals.
func MergeTenantStats(dst, src []TenantStats) []TenantStats {
	byName := make(map[string]int, len(dst))
	for i := range dst {
		byName[dst[i].Tenant] = i
	}
	for _, o := range src {
		if i, ok := byName[o.Tenant]; ok {
			dst[i].Accumulate(o)
			continue
		}
		o.derive()
		byName[o.Tenant] = len(dst)
		dst = append(dst, o)
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].Tenant < dst[j].Tenant })
	return dst
}
