// Package workload generates the traffic the PINT evaluation drives its
// simulations with (§6.1): flow sizes drawn from the web-search [3]
// (DCTCP/Microsoft) and Hadoop [62] (Facebook) distributions, and Poisson
// flow arrivals calibrated so the offered load matches a target fraction
// of the network capacity.
//
// The two empirical distributions are encoded by their deciles exactly as
// the paper's Fig 7(b)/(c) axes report them ("the x-axis scale is chosen
// such that there are 10% of the flows between consecutive tick marks"),
// with log-linear interpolation inside each decile.
package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/hash"
)

// CDFPoint is one (size, cumulative-probability) knot of an empirical
// flow-size distribution.
type CDFPoint struct {
	Bytes float64
	Cum   float64
}

// Dist is an empirical flow-size distribution with log-linear
// interpolation between knots.
type Dist struct {
	Name   string
	points []CDFPoint
	mean   float64
}

// NewDist builds a distribution from CDF knots. Knots must be strictly
// increasing in both coordinates and end at cumulative probability 1.
func NewDist(name string, points []CDFPoint) (*Dist, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("workload: need >= 2 CDF points")
	}
	for i, p := range points {
		if p.Bytes <= 0 || p.Cum < 0 || p.Cum > 1 {
			return nil, fmt.Errorf("workload: bad CDF point %+v", p)
		}
		if i > 0 && (p.Bytes <= points[i-1].Bytes || p.Cum <= points[i-1].Cum) {
			return nil, fmt.Errorf("workload: CDF not strictly increasing at %d", i)
		}
	}
	if points[len(points)-1].Cum != 1 {
		return nil, fmt.Errorf("workload: CDF must end at 1")
	}
	d := &Dist{Name: name, points: points}
	d.mean = d.computeMean()
	return d, nil
}

// computeMean integrates the quantile function numerically.
func (d *Dist) computeMean() float64 {
	const steps = 100000
	sum := 0.0
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) / steps
		sum += d.Quantile(u)
	}
	return sum / steps
}

// Quantile inverts the CDF: the flow size at cumulative probability u,
// log-linearly interpolated.
func (d *Dist) Quantile(u float64) float64 {
	pts := d.points
	if u <= pts[0].Cum {
		return pts[0].Bytes
	}
	if u >= 1 {
		return pts[len(pts)-1].Bytes
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Cum >= u })
	lo, hi := pts[i-1], pts[i]
	frac := (u - lo.Cum) / (hi.Cum - lo.Cum)
	return math.Exp(math.Log(lo.Bytes) + frac*(math.Log(hi.Bytes)-math.Log(lo.Bytes)))
}

// Sample draws one flow size in bytes (at least 1).
func (d *Dist) Sample(rng *hash.RNG) int64 {
	v := int64(math.Round(d.Quantile(rng.Float64())))
	if v < 1 {
		v = 1
	}
	return v
}

// MeanBytes returns the distribution mean.
func (d *Dist) MeanBytes() float64 { return d.mean }

// Scaled returns a copy with every flow size divided by divisor (floored
// at 1 byte). Bench-sized simulations shrink flows so they complete within
// short horizons while keeping the distribution's shape; relative results
// (slowdown orderings, overhead sensitivity) are scale-invariant.
func (d *Dist) Scaled(divisor float64) *Dist {
	if divisor <= 0 {
		divisor = 1
	}
	pts := make([]CDFPoint, len(d.points))
	prev := 0.0
	for i, p := range d.points {
		b := p.Bytes / divisor
		if b < prev+1e-9 {
			b = prev + 1 // keep strict monotonicity after flooring
		}
		pts[i] = CDFPoint{Bytes: b, Cum: p.Cum}
		prev = b
	}
	nd, err := NewDist(d.Name+"-scaled", pts)
	if err != nil {
		panic("workload: scaling broke the CDF: " + err.Error())
	}
	return nd
}

// WebSearch returns the web-search workload [3] with deciles matching
// Fig 7(b)'s tick marks: 7K, 20K, 30K, 50K, 73K, 197K, 989K, 2M, 5M, 30M.
func WebSearch() *Dist {
	d, err := NewDist("websearch", []CDFPoint{
		{Bytes: 1000, Cum: 0.0001},
		{Bytes: 7_000, Cum: 0.1},
		{Bytes: 20_000, Cum: 0.2},
		{Bytes: 30_000, Cum: 0.3},
		{Bytes: 50_000, Cum: 0.4},
		{Bytes: 73_000, Cum: 0.5},
		{Bytes: 197_000, Cum: 0.6},
		{Bytes: 989_000, Cum: 0.7},
		{Bytes: 2_000_000, Cum: 0.8},
		{Bytes: 5_000_000, Cum: 0.9},
		{Bytes: 30_000_000, Cum: 1},
	})
	if err != nil {
		panic("workload: web search distribution invalid: " + err.Error())
	}
	return d
}

// Hadoop returns the Facebook Hadoop workload [62] with deciles matching
// Fig 7(c)'s tick marks: 324, 399, 500, 599, 699, 999, 7K, 46K, 120K, 10M.
func Hadoop() *Dist {
	d, err := NewDist("hadoop", []CDFPoint{
		{Bytes: 200, Cum: 0.0001},
		{Bytes: 324, Cum: 0.1},
		{Bytes: 399, Cum: 0.2},
		{Bytes: 500, Cum: 0.3},
		{Bytes: 599, Cum: 0.4},
		{Bytes: 699, Cum: 0.5},
		{Bytes: 999, Cum: 0.6},
		{Bytes: 7_000, Cum: 0.7},
		{Bytes: 46_000, Cum: 0.8},
		{Bytes: 120_000, Cum: 0.9},
		{Bytes: 10_000_000, Cum: 1},
	})
	if err != nil {
		panic("workload: hadoop distribution invalid: " + err.Error())
	}
	return d
}

// Flow is one generated flow.
type Flow struct {
	ID    uint64
	Src   int   // host node ID
	Dst   int   // host node ID
	Bytes int64 // payload size
	Start int64 // arrival time, ns
}

// Generator produces Poisson flow arrivals between uniformly random
// distinct host pairs with sizes from a Dist, calibrated so the aggregate
// offered load equals `load` times the total host access capacity
// (the standard data-center load definition used in §6.1).
type Generator struct {
	Hosts        []int
	Dist         *Dist
	Load         float64 // target fraction of access capacity, e.g. 0.5
	HostLinkBps  int64   // access link capacity per host
	rng          *hash.RNG
	interArrival float64 // mean ns between flow arrivals network-wide
	next         int64
	nextID       uint64
}

// NewGenerator validates parameters and computes the Poisson rate:
// load × hosts × linkRate / meanFlowSize flows per second network-wide.
func NewGenerator(hosts []int, dist *Dist, load float64, hostLinkBps int64, rng *hash.RNG) (*Generator, error) {
	if len(hosts) < 2 {
		return nil, fmt.Errorf("workload: need >= 2 hosts")
	}
	if load <= 0 || load > 1 {
		return nil, fmt.Errorf("workload: load %v out of (0,1]", load)
	}
	if hostLinkBps <= 0 {
		return nil, fmt.Errorf("workload: non-positive link rate")
	}
	bytesPerSec := load * float64(len(hosts)) * float64(hostLinkBps) / 8
	flowsPerSec := bytesPerSec / dist.MeanBytes()
	return &Generator{
		Hosts:        hosts,
		Dist:         dist,
		Load:         load,
		HostLinkBps:  hostLinkBps,
		rng:          rng,
		interArrival: 1e9 / flowsPerSec,
	}, nil
}

// Next returns the next flow arrival.
func (g *Generator) Next() Flow {
	g.next += int64(math.Round(g.rng.ExpFloat64() * g.interArrival))
	src := g.Hosts[g.rng.Intn(len(g.Hosts))]
	dst := src
	for dst == src {
		dst = g.Hosts[g.rng.Intn(len(g.Hosts))]
	}
	g.nextID++
	return Flow{
		ID:    g.nextID,
		Src:   src,
		Dst:   dst,
		Bytes: g.Dist.Sample(g.rng),
		Start: g.next,
	}
}

// GenerateUntil returns all flows arriving before horizon (ns).
func (g *Generator) GenerateUntil(horizon int64) []Flow {
	var out []Flow
	for {
		f := g.Next()
		if f.Start >= horizon {
			return out
		}
		out = append(out, f)
	}
}
