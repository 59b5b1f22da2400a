package admit

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// CapacityConfig shapes the AIMD capacity controller: a congestion
// window over the sink's ingest rate, probed upward additively while the
// sink keeps up and cut multiplicatively when stall feedback arrives —
// TCP's CWND discipline applied to admission instead of transmission.
type CapacityConfig struct {
	// Initial is the starting capacity estimate in packets/second.
	// 0 disables the controller entirely (quotas still apply). The rest of
	// the controller's shape follows from it and the constants below.
	Initial float64
}

// The controller's shape. The estimate stays within [Initial/capacitySpan,
// Initial×capacitySpan] (the deepest a congestion collapse can cut, and
// the highest probing climbs). Every stall-free probeEvery it grows by
// Initial/probeDivisor; stall feedback cuts it by backoffBeta, at most
// once per probeEvery, and probing resumes only after a stall-free
// probeEvery. The admission bucket holds burstSeconds of capacity — how
// much of an idle period's unused budget may be spent at once.
const (
	capacitySpan = 64
	probeDivisor = 16
	backoffBeta  = 0.5
	probeEvery   = time.Second
	burstSeconds = 0.1
)

func (c CapacityConfig) enabled() bool { return c.Initial > 0 }

func (c CapacityConfig) valid() error {
	switch {
	case c.Initial < 0:
		return fmt.Errorf("admit: capacity config without a positive Initial")
	case math.IsInf(c.Initial, 0):
		return fmt.Errorf("admit: capacity initial %v out of range", c.Initial)
	}
	return nil
}

// Controller is the AIMD capacity estimator plus its admission bucket.
// All methods are safe for concurrent use; every session feeding the
// collector shares one Controller.
//
// The invariant its property test pins: over any run, the total expected
// packets granted never exceeds the integral of the capacity estimate
// over time plus one bucket depth — whatever the offered load and
// whatever the stall pattern, admission is bounded by the estimate.
type Controller struct {
	// min, max and probe are the estimate's bounds and its additive
	// increase, scaled from CapacityConfig.Initial.
	min, max, probe float64
	clock           Clock

	mu          sync.Mutex
	capacity    float64 // current estimate, packets/second
	tokens      float64 // admission bucket, packets
	last        uint64  // last refill instant
	lastProbe   uint64  // last additive increase
	lastBackoff uint64  // last multiplicative decrease
	lastStall   uint64  // last stall observed (backoff or not)
	stalls      uint64
	probes      uint64
	backoffs    uint64
}

// NewController builds a controller from a validated config. Returns
// nil when the config disables the controller.
func NewController(cfg CapacityConfig, clock Clock) (*Controller, error) {
	if err := cfg.valid(); err != nil {
		return nil, err
	}
	if !cfg.enabled() {
		return nil, nil
	}
	if clock == nil {
		clock = defaultClock
	}
	now := clock()
	return &Controller{
		min:      cfg.Initial / capacitySpan,
		max:      cfg.Initial * capacitySpan,
		probe:    cfg.Initial / probeDivisor,
		clock:    clock,
		capacity: cfg.Initial,
		tokens:   cfg.Initial * burstSeconds,
		last:     now, lastProbe: now, lastBackoff: now, lastStall: now,
	}, nil
}

// refill advances the bucket and runs the additive-increase probe; the
// caller holds mu.
func (c *Controller) refill(now uint64) {
	if now <= c.last {
		return
	}
	dt := float64(now-c.last) / 1e9
	c.last = now
	// Probe upward only after a full stall-free window, at the probe
	// cadence — additive increase, gated on quiet. The gate watches the
	// last stall, not the last backoff: a stall absorbed inside the
	// backoff window still means the sink was behind, and probing into
	// it would oscillate.
	if now-c.lastStall >= uint64(probeEvery) && now-c.lastProbe >= uint64(probeEvery) {
		if c.capacity += c.probe; c.capacity > c.max {
			c.capacity = c.max
		}
		c.lastProbe = now
		c.probes++
	}
	if c.tokens += c.capacity * dt; c.tokens > c.capacity*burstSeconds {
		c.tokens = c.capacity * burstSeconds
	}
}

// Observe feeds one sink hand-off's stall verdict back into the
// estimate. A stalled hand-off inside the feedback window cuts capacity
// multiplicatively — but at most once per window, so a burst of stalls
// from many concurrent sessions registers as one congestion event, not a
// collapse to the floor.
func (c *Controller) Observe(stalled bool) {
	if c == nil {
		return
	}
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if stalled {
		// Record the stall before the refill runs so a probe cannot fire
		// at the very instant congestion is being reported.
		c.stalls++
		c.lastStall = now
	}
	c.refill(now)
	if !stalled {
		return
	}
	if now-c.lastBackoff < uint64(probeEvery) {
		return
	}
	c.capacity = math.Max(c.min, c.capacity*backoffBeta)
	c.lastBackoff = now
	c.lastProbe = now
	c.backoffs++
	c.tokens = math.Min(c.tokens, c.capacity*burstSeconds)
}

// grantAt asks the controller at clock reading now for permission to
// admit n expected packets and returns the granted fraction in [0,1]: 1
// when the bucket covers the frame, the covered fraction otherwise. The
// expectation n*g is drawn from the bucket, so total expected admission is
// bounded by the capacity integral regardless of offered load. The
// per-frame path reads the clock once in Tenant.Decide and shares it (both
// sides run the same injected Clock, so the shared read changes nothing
// observable).
func (c *Controller) grantAt(now uint64, n float64) float64 {
	c.mu.Lock()
	c.refill(now)
	g := 1.0
	if c.tokens >= n {
		c.tokens -= n
	} else {
		g = c.tokens / n
		c.tokens = 0
	}
	c.mu.Unlock()
	return g
}

// CapacityStats is the controller's point-in-time telemetry, served
// under /stats.
type CapacityStats struct {
	// Capacity is the current AIMD estimate in packets/second.
	Capacity float64 `json:"capacity"`
	// Stalls counts stalled hand-offs observed; Backoffs counts the
	// multiplicative decreases they triggered (≤ one per window);
	// Probes counts additive increases.
	Stalls   uint64 `json:"stalls"`
	Backoffs uint64 `json:"backoffs"`
	Probes   uint64 `json:"probes"`
}

// Stats returns the controller's telemetry; zero for a nil controller.
func (c *Controller) Stats() CapacityStats {
	if c == nil {
		return CapacityStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CapacityStats{Capacity: c.capacity, Stalls: c.stalls, Backoffs: c.backoffs, Probes: c.probes}
}
