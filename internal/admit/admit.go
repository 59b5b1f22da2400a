// Package admit is the collector's multi-tenant QoS layer: per-tenant
// token-bucket quotas plus an adaptive (AIMD) estimate of what the sink
// can absorb, combined into one per-frame admission decision.
//
// The design premise is PINT's own: accuracy is the currency. When a
// tenant offers more than its quota — or the whole collector offers more
// than the sink keeps up with — the layer does not stall the exporter
// behind TCP backpressure or drop frames blindly. It admits digests at a
// known sampling probability p, chosen per frame, and the realized
// admitted/offered ratio is published per tenant so every query answer
// carries its exact error inflation: count-style answers scale by 1/p̂,
// quantile ranks widen by a computable ε (see TenantStats).
// Degradation is a measured accuracy trade, not data loss of unknown
// shape.
//
// Shedding is stateless and reproducible: a packet survives iff a
// per-tenant seeded hash of (flow, packet ID) falls under p. The
// admitted subset is a pure function of (policy seed, packet, p) — two
// runs offering the same packets under the same decisions shed the same
// packets, regardless of connection interleaving.
//
// Policy is declarative (Policy/Quota values, not wired-in behavior) and
// everything is driven by an injectable clock, so admission dynamics are
// deterministic under test.
package admit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Clock is the layer's time source: monotonic-ish nanoseconds. The
// default reads the wall clock; tests and deterministic scenarios inject
// a scripted one.
type Clock func() uint64

func defaultClock() uint64 { return uint64(time.Now().UnixNano()) }

// DefaultTenant is the tenant a session whose Hello leaves the tenant
// label empty is accounted under.
const DefaultTenant = "default"

// DefaultMinSample is the sampling-probability floor applied when a
// Quota does not set its own: even an unboundedly over-quota tenant
// keeps 1% of its digests, so its answers stay statistically usable
// (with a known, published error) rather than going dark.
const DefaultMinSample = 0.01

// Quota is one tenant's admission contract.
type Quota struct {
	// Rate is the sustained admitted-packet budget in packets/second.
	// 0 means unlimited (no quota shedding for this tenant).
	Rate float64
	// Burst is the token-bucket depth in packets — how far above Rate a
	// tenant may briefly spike before sampling kicks in. 0 with a
	// non-zero Rate defaults to one second's worth (Rate).
	Burst float64
	// MinSample floors the sampling probability for an over-quota
	// tenant. 0 means DefaultMinSample.
	MinSample float64
}

// valid normalizes and checks one quota.
func (q Quota) valid(who string) (Quota, error) {
	switch {
	case q.Rate < 0 || math.IsNaN(q.Rate) || math.IsInf(q.Rate, 0):
		return q, fmt.Errorf("admit: %s: quota rate %v out of range", who, q.Rate)
	case q.Burst < 0 || math.IsNaN(q.Burst) || math.IsInf(q.Burst, 0):
		return q, fmt.Errorf("admit: %s: quota burst %v out of range", who, q.Burst)
	case q.MinSample < 0 || q.MinSample > 1 || math.IsNaN(q.MinSample):
		return q, fmt.Errorf("admit: %s: min sample %v outside [0,1]", who, q.MinSample)
	}
	if q.Rate > 0 && q.Burst == 0 {
		q.Burst = q.Rate
	}
	if q.MinSample == 0 {
		q.MinSample = DefaultMinSample
	}
	return q, nil
}

// Policy is the collector's declarative QoS configuration: what each
// tenant may sustain, and (optionally) how the global capacity estimate
// adapts to sink stall feedback. The zero Policy disables the layer
// entirely — every decision admits everything, byte-identical to a
// collector built before tenancy existed.
type Policy struct {
	// Default is the quota for tenants not listed in Tenants (including
	// DefaultTenant unless listed explicitly).
	Default Quota
	// Tenants maps tenant names to their quotas.
	Tenants map[string]Quota
	// Capacity configures the AIMD controller gating total post-quota
	// admission on sink stall feedback. Zero disables it.
	Capacity CapacityConfig
	// Seed keys the per-tenant shedding hash; runs sharing a seed shed
	// identical packet subsets.
	Seed uint64
	// Clock overrides the time source (tests, deterministic scenarios).
	Clock Clock
}

// Enabled reports whether the policy does anything at all.
func (p Policy) Enabled() bool {
	return p.Default.Rate > 0 || len(p.Tenants) > 0 || p.Capacity.enabled()
}

// Validate normalizes the policy (filling defaulted burst depths,
// sampling floors, and AIMD parameters) and rejects malformed values.
func (p Policy) Validate() (Policy, error) {
	var err error
	if p.Default, err = p.Default.valid("default quota"); err != nil {
		return p, err
	}
	if len(p.Tenants) > 0 {
		norm := make(map[string]Quota, len(p.Tenants))
		for name, q := range p.Tenants {
			if name == "" {
				return p, fmt.Errorf("admit: empty tenant name in policy")
			}
			if norm[name], err = q.valid("tenant " + name); err != nil {
				return p, err
			}
		}
		p.Tenants = norm
	}
	if p.Capacity, err = p.Capacity.valid(); err != nil {
		return p, err
	}
	if p.Clock == nil {
		p.Clock = defaultClock
	}
	return p, nil
}

// quotaFor resolves one tenant's quota under the policy.
func (p Policy) quotaFor(name string) Quota {
	if q, ok := p.Tenants[name]; ok {
		return q
	}
	return p.Default
}

// ParsePolicy builds the quota side of a Policy from a flag-friendly
// spec: comma-separated `name=rate[/burst[/minsample]]` entries, where
// the name `*` sets the default quota and rate is in packets/second.
//
//	hog=5000
//	hog=5000/20000,*=1e6
//	batch=50000/50000/0.05
//
// An empty spec returns the zero (disabled) Policy.
func ParsePolicy(spec string) (Policy, error) {
	var p Policy
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return Policy{}, fmt.Errorf("admit: bad quota entry %q (want name=rate[/burst[/minsample]])", entry)
		}
		var q Quota
		parts := strings.Split(val, "/")
		if len(parts) > 3 {
			return Policy{}, fmt.Errorf("admit: bad quota entry %q: too many / fields", entry)
		}
		for i, part := range parts {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return Policy{}, fmt.Errorf("admit: bad quota entry %q: %v", entry, err)
			}
			switch i {
			case 0:
				q.Rate = f
			case 1:
				q.Burst = f
			case 2:
				q.MinSample = f
			}
		}
		if name == "*" {
			p.Default = q
			continue
		}
		if p.Tenants == nil {
			p.Tenants = map[string]Quota{}
		}
		if _, dup := p.Tenants[name]; dup {
			return Policy{}, fmt.Errorf("admit: tenant %q listed twice", name)
		}
		p.Tenants[name] = q
	}
	if _, err := p.Validate(); err != nil {
		return Policy{}, err
	}
	return p, nil
}

// Threshold32 maps a sampling probability to the 32-bit keep threshold
// the shedding hash is compared against: a packet whose (seeded) hash's
// top 32 bits fall strictly under the threshold is admitted. p ≥ 1
// admits everything, p ≤ 0 nothing; resolution is 2⁻³².
func Threshold32(p float64) uint64 {
	if p >= 1 {
		return 1 << 32
	}
	if p <= 0 {
		return 0
	}
	// floor(x+0.5) == math.Round(x) for positive x, without the
	// soft-float call in the per-frame path.
	return uint64(p*(1<<32) + 0.5)
}
