package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/hash"
)

// QuerySet is one cell of the execution plan: the queries that share a
// packet's digest and the probability a packet is assigned to this set.
// Offsets[i] is query i's bit offset within the digest.
type QuerySet struct {
	Queries []Query
	Offsets []int
	Prob    float64
}

// ExecutionPlan is the Query Engine's output (§3.4, Fig 3): a distribution
// over query sets, each fitting the global budget.
type ExecutionPlan struct {
	GlobalBits int
	Sets       []QuerySet
}

// String renders the plan like Fig 3's table.
func (p ExecutionPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "execution plan (budget %d bits):\n", p.GlobalBits)
	for _, s := range p.Sets {
		names := make([]string, len(s.Queries))
		for i, q := range s.Queries {
			names[i] = q.Name()
		}
		fmt.Fprintf(&b, "  {%s}  p=%.4f\n", strings.Join(names, ", "), s.Prob)
	}
	return b.String()
}

// Engine coordinates queries at runtime: every switch (and the sink) holds
// an identical Engine, so the query-selection hash yields the same query
// set for a packet everywhere — the implicit coordination of §4.1.
type Engine struct {
	g      hash.Global
	master hash.Seed
	plan   ExecutionPlan
	// cum[i] is the upper boundary of set i's probability interval.
	cum []float64
	// progs[i] is set i lowered to a flat encode/record program.
	progs []encodeProgram
	// slots numbers the compiled queries: slots[q] is q's place in every
	// flow the Recording Module tracks (places), and each compiled op
	// carries its query's number.
	slots map[Query]int
	// places lays out a flow's block (flowState.words): where each query's
	// state is in it, laid out for the flow's k. A k-hop flow's block is
	// blockBase+blockPerHop*k words; kinds counts the queries of each kind.
	places                 []slotPlace
	blockBase, blockPerHop int
	kinds                  [3]int
}

// Compile builds an execution plan for concurrent queries under a global
// per-packet bit budget. The plan satisfies every query's frequency: the
// total probability of sets containing query q is at least q.Frequency().
// Compilation is greedy (largest remaining frequency first, first-fit by
// bits), which suffices for the paper's workloads; infeasible inputs
// (including ∑ freq·bits > budget) are rejected.
func Compile(queries []Query, globalBits int, master hash.Seed) (*Engine, error) {
	if globalBits < 1 || globalBits > 64 {
		return nil, fmt.Errorf("core: global budget %d out of [1,64]", globalBits)
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: no queries")
	}
	names := map[string]bool{}
	var mass float64
	for _, q := range queries {
		if q.Bits() < 1 || q.Bits() > globalBits {
			return nil, fmt.Errorf("core: query %q bits %d exceed budget %d",
				q.Name(), q.Bits(), globalBits)
		}
		f := q.Frequency()
		if !(0 < f && f <= 1) {
			return nil, fmt.Errorf("core: query %q frequency %v out of (0,1]", q.Name(), f)
		}
		if names[q.Name()] {
			return nil, fmt.Errorf("core: duplicate query name %q", q.Name())
		}
		names[q.Name()] = true
		mass += f * float64(q.Bits())
	}
	if mass > float64(globalBits)+1e-9 {
		return nil, fmt.Errorf("core: demanded %.2f bit-fraction exceeds budget %d",
			mass, globalBits)
	}

	rem := make([]float64, len(queries))
	for i, q := range queries {
		rem[i] = q.Frequency()
	}
	plan := ExecutionPlan{GlobalBits: globalBits}
	assigned := 0.0
	const eps = 1e-12
	for iter := 0; iter < 4*len(queries)+8; iter++ {
		// Candidates with remaining demand, largest first.
		idx := make([]int, 0, len(queries))
		for i := range queries {
			if rem[i] > eps {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			break
		}
		sort.Slice(idx, func(a, b int) bool {
			if rem[idx[a]] != rem[idx[b]] {
				return rem[idx[a]] > rem[idx[b]]
			}
			return idx[a] < idx[b]
		})
		var set QuerySet
		budget := globalBits
		minRem := 1.0
		for _, i := range idx {
			q := queries[i]
			if q.Bits() > budget {
				continue
			}
			set.Offsets = append(set.Offsets, globalBits-budget)
			set.Queries = append(set.Queries, q)
			budget -= q.Bits()
			if rem[i] < minRem {
				minRem = rem[i]
			}
		}
		if len(set.Queries) == 0 {
			return nil, fmt.Errorf("core: no query fits the remaining budget")
		}
		p := minRem
		if room := 1 - assigned; p > room {
			p = room
		}
		if p <= eps {
			break
		}
		set.Prob = p
		plan.Sets = append(plan.Sets, set)
		assigned += p
		for _, q := range set.Queries {
			for i := range queries {
				if queries[i] == q {
					rem[i] -= p
				}
			}
		}
	}
	for i, r := range rem {
		if r > 1e-9 {
			return nil, fmt.Errorf("core: cannot satisfy query %q (frequency shortfall %v)",
				queries[i].Name(), r)
		}
	}
	e := &Engine{g: hash.NewGlobal(master.Derive(0xE14)), master: master, plan: plan,
		slots: make(map[Query]int, len(queries))}
	for i, q := range queries {
		e.slots[q] = i
	}
	cum := 0.0
	for _, s := range plan.Sets {
		cum += s.Prob
		e.cum = append(e.cum, cum)
		prog, err := compileProgram(s, e.slots)
		if err != nil {
			return nil, err
		}
		e.progs = append(e.progs, prog)
	}
	e.layOut(queries)
	return e, nil
}

// Plan exposes the compiled plan.
func (e *Engine) Plan() ExecutionPlan { return e.plan }

// PlanHash fingerprints the compiled engine: the master seed plus the
// full plan structure (budget, set probabilities, and each set's query
// names, bits, aggregation types, and digest offsets). Two engines with
// equal hashes built from the same query constructors decode each other's
// digests bit-identically, so the collector handshake uses this hash to
// refuse exporters compiled under a different plan. It does not cover
// query-internal parameters the constructors derive from their own seeds;
// deployments vary those through the master seed, which is covered.
func (e *Engine) PlanHash() uint64 {
	const tag = hash.Seed(0x50494E54504C4EAD)
	h := tag.Hash2(uint64(e.master), uint64(e.plan.GlobalBits))
	for _, s := range e.plan.Sets {
		h = tag.Hash2(h, math.Float64bits(s.Prob))
		for i, q := range s.Queries {
			h = tag.Hash2(h, uint64(s.Offsets[i]))
			h = tag.Hash2(h, tag.HashString(q.Name()))
			h = tag.Hash3(h, uint64(q.Bits()), uint64(q.Agg()))
		}
	}
	return h
}

// SetFor returns the query set a packet serves, or nil when the packet's
// selection point falls in unassigned probability mass (possible when
// total demand < 1).
func (e *Engine) SetFor(pktID uint64) *QuerySet {
	if i := e.SetIndex(pktID); i >= 0 {
		return &e.plan.Sets[i]
	}
	return nil
}

func digestMask(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}
