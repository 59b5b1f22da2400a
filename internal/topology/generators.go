package topology

import (
	"fmt"

	"repro/internal/hash"
)

// FatTree builds the canonical k-ary fat tree: (k/2)² core switches, k pods
// of k/2 aggregation plus k/2 edge switches each, and (k/2)² hosts per pod.
// k must be even. The switch-level diameter is 4 (edge-agg-core-agg-edge),
// so host-to-host paths traverse at most 5 switches — the K=8 instance is
// Fig 10(c)/(f)'s topology.
func FatTree(k int) (*Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat tree arity %d must be even and >= 2", k)
	}
	g := NewGraph(fmt.Sprintf("fattree-k%d", k))
	half := k / 2
	// Core switches: half*half of them, organized in `half` groups.
	core := make([]int, half*half)
	for i := range core {
		core[i] = g.AddNode(Switch, fmt.Sprintf("core%d", i))
	}
	for pod := 0; pod < k; pod++ {
		aggs := make([]int, half)
		edges := make([]int, half)
		for i := 0; i < half; i++ {
			aggs[i] = g.AddNode(Switch, fmt.Sprintf("agg%d-%d", pod, i))
		}
		for i := 0; i < half; i++ {
			edges[i] = g.AddNode(Switch, fmt.Sprintf("edge%d-%d", pod, i))
		}
		// Full bipartite agg<->edge within the pod.
		for _, a := range aggs {
			for _, e := range edges {
				if err := g.AddEdge(a, e); err != nil {
					return nil, err
				}
			}
		}
		// Agg i connects to core group i (cores i*half .. i*half+half-1).
		for i, a := range aggs {
			for j := 0; j < half; j++ {
				if err := g.AddEdge(a, core[i*half+j]); err != nil {
					return nil, err
				}
			}
		}
		// Hosts: half per edge switch.
		for i, e := range edges {
			for h := 0; h < half; h++ {
				host := g.AddNode(Host, fmt.Sprintf("host%d-%d-%d", pod, i, h))
				if err := g.AddEdge(e, host); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// LeafSpine builds a generalized 3-tier pod topology: `pods` pods of
// aggPerPod agg + torPerPod ToR switches, hostsPerTor servers per rack,
// and aggPerPod core groups of coresPerGroup switches; every ToR connects
// to every agg in its pod, and agg i of each pod to core group i.
// LeafSpine(5, 4, 4, 16, 4) is the HPCC paper's topology (16 core, 20 agg,
// 20 ToR switches, 320 servers); bench-sized runs shrink rack size and
// pod count while preserving the 5-switch cross-pod path structure
// (ToR→agg→core→agg→ToR).
func LeafSpine(pods, aggPerPod, torPerPod, hostsPerTor, coresPerGroup int) (*Graph, error) {
	if pods < 1 || aggPerPod < 1 || torPerPod < 1 || hostsPerTor < 1 || coresPerGroup < 1 {
		return nil, fmt.Errorf("topology: leaf-spine dimensions must be positive")
	}
	coreGroups := aggPerPod
	g := NewGraph(fmt.Sprintf("leafspine-p%d-a%d-t%d-h%d", pods, aggPerPod, torPerPod, hostsPerTor))

	core := make([][]int, coreGroups)
	for gi := 0; gi < coreGroups; gi++ {
		for ci := 0; ci < coresPerGroup; ci++ {
			core[gi] = append(core[gi], g.AddNode(Switch, fmt.Sprintf("core%d-%d", gi, ci)))
		}
	}
	for p := 0; p < pods; p++ {
		aggs := make([]int, aggPerPod)
		for i := range aggs {
			aggs[i] = g.AddNode(Switch, fmt.Sprintf("agg%d-%d", p, i))
		}
		tors := make([]int, torPerPod)
		for i := range tors {
			tors[i] = g.AddNode(Switch, fmt.Sprintf("tor%d-%d", p, i))
		}
		for _, a := range aggs {
			for _, tr := range tors {
				if err := g.AddEdge(a, tr); err != nil {
					return nil, err
				}
			}
		}
		for i, a := range aggs {
			for _, c := range core[i] {
				if err := g.AddEdge(a, c); err != nil {
					return nil, err
				}
			}
		}
		for ti, tr := range tors {
			for h := 0; h < hostsPerTor; h++ {
				host := g.AddNode(Host, fmt.Sprintf("host%d-%d-%d", p, ti, h))
				if err := g.AddEdge(tr, host); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// ISPLike generates a wide-area topology with exactly `switches` switch
// nodes and switch-level diameter `diameter`: a backbone path of
// diameter+1 nodes guarantees shortest paths of every length 1..diameter,
// and the remaining nodes attach as short random trees off backbone nodes
// (depth ≤ 2) so the backbone stays the unique diameter-realizing spine,
// mimicking the chain-of-rings shape of long-haul ISP maps like Kentucky
// Datalink. Deterministic for a given seed.
func ISPLike(name string, switches, diameter int, seed uint64) (*Graph, error) {
	if diameter < 1 || switches < diameter+1 {
		return nil, fmt.Errorf("topology: need >= diameter+1 switches (%d < %d)",
			switches, diameter+1)
	}
	g := NewGraph(name)
	rng := hash.NewRNG(seed)
	backbone := make([]int, diameter+1)
	for i := range backbone {
		backbone[i] = g.AddNode(Switch, fmt.Sprintf("bb%d", i))
		if i > 0 {
			if err := g.AddEdge(backbone[i-1], backbone[i]); err != nil {
				return nil, err
			}
		}
	}
	// Attach the remaining switches as depth-1 leaves on interior backbone
	// nodes only (never the two endpoints), so no attachment extends the
	// diameter: a leaf off interior node i has eccentricity
	// max(i, D−i)+1 ≤ D exactly when 1 ≤ i ≤ D−1. Every seventh leaf is
	// dual-homed to two adjacent backbone nodes, creating the equal-cost
	// alternatives real ISP maps exhibit without shortening any path.
	remaining := switches - len(backbone)
	for j := 0; remaining > 0; j++ {
		leaf := g.AddNode(Switch, fmt.Sprintf("leaf%d", g.NumNodes()))
		remaining--
		if diameter >= 3 && j%7 == 3 {
			i := 1 + rng.Intn(diameter-2)
			if err := g.AddEdge(backbone[i], leaf); err != nil {
				return nil, err
			}
			if err := g.AddEdge(backbone[i+1], leaf); err != nil {
				return nil, err
			}
			continue
		}
		anchorIdx := 1 + rng.Intn(diameter-1)
		if err := g.AddEdge(backbone[anchorIdx], leaf); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// KentuckyDatalinkLike approximates Topology Zoo's Kentucky Datalink:
// 753 switches, diameter 59.
func KentuckyDatalinkLike() (*Graph, error) {
	return ISPLike("kentucky-datalink-like", 753, 59, 0x4B454E)
}

// USCarrierLike approximates Topology Zoo's US Carrier: 157 switches,
// diameter 36.
func USCarrierLike() (*Graph, error) {
	return ISPLike("us-carrier-like", 157, 36, 0xCA11)
}
