package scenario

import "fmt"

// Scale bundles the knobs that shrink paper-sized experiments to
// bench-sized ones without changing their structure.
type Scale struct {
	// HostBps / TierBps are the access and fabric link rates (paper:
	// 100G/400G; bench default 1G/4G).
	HostBps int64
	TierBps int64
	// SizeDivisor shrinks workload flow sizes so flows complete within
	// DurationNs.
	SizeDivisor float64
	// DurationNs is the flow-arrival horizon; the simulation drains for
	// 3x this before collecting.
	DurationNs int64
	// Pods/HostsPerTor shape the leaf-spine instance.
	Pods        int
	HostsPerTor int
	// Trials for per-trial experiments (Fig 5/10).
	Trials int
	// Seed drives all randomness.
	Seed uint64
	// Shards sets the worker count of every scenario's recording sink:
	// wherever an experiment records digests (Fig 9's latency trials,
	// Fig 11's delivery tap, the engine path trials, the non-paper
	// scenarios), the stream runs through the sharded batch pipeline
	// (internal/pipeline) with this many workers. Answers are
	// bit-identical for any value, so figures do not change; 0 means 1.
	// Experiments with no recording path (pure transport or coding
	// studies) have nothing to shard. Validate rejects invalid values —
	// they are never silently ignored.
	Shards int
}

// MaxShards bounds Scale.Shards: beyond this, per-shard state dominates
// and the configuration is almost certainly a typo.
const MaxShards = 256

// Validate rejects scales no experiment can run: the scenario runner and
// the CLIs call it up front so a bad knob fails loudly instead of being
// silently ignored by some figures and honored by others.
func (s Scale) Validate() error {
	switch {
	case s.HostBps <= 0 || s.TierBps <= 0:
		return fmt.Errorf("scenario: link rates must be positive (host %d, tier %d)", s.HostBps, s.TierBps)
	case s.SizeDivisor < 1:
		return fmt.Errorf("scenario: SizeDivisor %v below 1", s.SizeDivisor)
	case s.DurationNs <= 0:
		return fmt.Errorf("scenario: DurationNs %d not positive", s.DurationNs)
	case s.Pods < 1 || s.HostsPerTor < 1:
		return fmt.Errorf("scenario: topology shape %dx%d invalid", s.Pods, s.HostsPerTor)
	case s.Trials < 1:
		return fmt.Errorf("scenario: Trials %d below 1", s.Trials)
	case s.Shards < 0 || s.Shards > MaxShards:
		return fmt.Errorf("scenario: Shards %d out of [0,%d]", s.Shards, MaxShards)
	}
	return nil
}

// ShardCount returns the effective recording-sink worker count (Shards,
// with 0 meaning serial-in-a-worker).
func (s Scale) ShardCount() int {
	if s.Shards < 1 {
		return 1
	}
	return s.Shards
}

// Bench returns the default scale of cmd/pintfig and cmd/pinttrace:
// seconds per scenario.
func Bench() Scale {
	return Scale{
		HostBps:     1_000_000_000,
		TierBps:     4_000_000_000,
		SizeDivisor: 64,
		DurationNs:  60_000_000, // 60 ms of arrivals
		Pods:        2,
		HostsPerTor: 4,
		Trials:      50,
		Seed:        1,
	}
}

// Quick returns the smallest sensible scale: a smoke-test configuration
// (cmd/pintfig -scale quick) that exercises every scenario's full code
// path in seconds, for CI, the goldens and bit-rot checks rather than for
// fidelity.
func Quick() Scale {
	s := Bench()
	s.SizeDivisor = 256
	s.DurationNs = 10_000_000 // 10 ms of arrivals
	s.Trials = 3
	return s
}

// Paper returns a scale closer to the paper's setup (minutes to hours per
// figure; used by cmd/pintfig -scale paper).
func Paper() Scale {
	return Scale{
		HostBps:     25_000_000_000, // 25G in place of 100G: 4x faster sim
		TierBps:     100_000_000_000,
		SizeDivisor: 4,
		DurationNs:  100_000_000,
		Pods:        5,
		HostsPerTor: 16,
		Trials:      2000,
		Seed:        1,
	}
}

// BaseRTTNs estimates the network's base RTT for a cross-pod path at this
// scale: per direction, 6 serializations of a 1000B packet (host + 5
// switches) plus propagation; ACKs are small, so ~1.2x one-way covers it.
func (s Scale) BaseRTTNs() int64 {
	ser := int64(1000*8) * 1_000_000_000 / s.HostBps
	oneWay := 6*ser + 6*1000
	return 2 * oneWay
}
