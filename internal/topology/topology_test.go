package topology

import (
	"testing"
)

// numEdges returns the undirected edge count.
func numEdges(g *Graph) int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// diameter returns the maximum finite shortest-path length between switch
// nodes (hosts excluded, matching how the paper quotes topology diameters).
func diameter(g *Graph) int {
	d := 0
	for _, s := range g.Switches() {
		dist, _ := g.BFSFrom(s)
		for _, t := range g.Switches() {
			if dist[t] > d {
				d = dist[t]
			}
		}
	}
	return d
}

func TestAddEdgeValidation(t *testing.T) {
	g := NewGraph("t")
	a := g.AddNode(Switch, "a")
	b := g.AddNode(Switch, "b")
	if err := g.AddEdge(a, a); err == nil {
		t.Fatal("self edge must fail")
	}
	if err := g.AddEdge(a, 99); err == nil {
		t.Fatal("out-of-range edge must fail")
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a, b); err == nil {
		t.Fatal("duplicate edge must fail")
	}
	if err := g.AddEdge(b, a); err == nil {
		t.Fatal("reversed duplicate edge must fail")
	}
	if numEdges(g) != 1 {
		t.Fatalf("edges = %d, want 1", numEdges(g))
	}
}

func TestSwitchIDsDistinct(t *testing.T) {
	g, err := FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, id := range g.SwitchIDUniverse() {
		if seen[id] {
			t.Fatal("duplicate switch ID")
		}
		if id >= 1<<32 {
			t.Fatal("switch ID must fit 32 bits")
		}
		seen[id] = true
	}
}

func TestFatTreeShape(t *testing.T) {
	if _, err := FatTree(3); err == nil {
		t.Fatal("odd arity must fail")
	}
	g, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 4 core + 4 pods × (2 agg + 2 edge) = 20 switches, 16 hosts.
	if got := len(g.Switches()); got != 20 {
		t.Fatalf("k=4 switches = %d, want 20", got)
	}
	if got := len(g.Hosts()); got != 16 {
		t.Fatalf("k=4 hosts = %d, want 16", got)
	}
	if d := diameter(g); d != 4 {
		t.Fatalf("fat tree switch diameter = %d, want 4", d)
	}
}

func TestFatTreeK8HostPathLength(t *testing.T) {
	g, err := FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	// Cross-pod host pair traverses exactly 5 switches (Fig 10c's D=5).
	p := g.SwitchPath(hosts[0], hosts[len(hosts)-1], 7)
	if len(p) != 5 {
		t.Fatalf("cross-pod switch path length %d, want 5", len(p))
	}
	// Same-edge pair traverses exactly 1 switch.
	p = g.SwitchPath(hosts[0], hosts[1], 7)
	if len(p) != 1 {
		t.Fatalf("same-rack switch path length %d, want 1", len(p))
	}
}

func TestLeafSpineHPCCShape(t *testing.T) {
	if _, err := LeafSpine(0, 4, 4, 16, 4); err == nil {
		t.Fatal("zero pods must fail")
	}
	g, err := LeafSpine(5, 4, 4, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Paper numbers: 16 core + 20 agg + 20 tor = 56 switches, 320 hosts.
	if got := len(g.Switches()); got != 56 {
		t.Fatalf("switches = %d, want 56", got)
	}
	if got := len(g.Hosts()); got != 320 {
		t.Fatalf("hosts = %d, want 320", got)
	}
	// Max host-to-host: tor-agg-core-agg-tor = 5 switches.
	hosts := g.Hosts()
	p := g.SwitchPath(hosts[0], hosts[len(hosts)-1], 3)
	if len(p) != 5 {
		t.Fatalf("cross-pod path %d switches, want 5", len(p))
	}
}

func TestLeafSpineScaledKeepsPathLengths(t *testing.T) {
	g, err := LeafSpine(2, 4, 4, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	p := g.SwitchPath(hosts[0], hosts[len(hosts)-1], 3)
	if len(p) != 5 {
		t.Fatalf("scaled cross-pod path %d switches, want 5", len(p))
	}
}

func TestISPLikeDiameters(t *testing.T) {
	cases := []struct {
		make func() (*Graph, error)
		n    int
		d    int
	}{
		{KentuckyDatalinkLike, 753, 59},
		{USCarrierLike, 157, 36},
	}
	for _, c := range cases {
		g, err := c.make()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(g.Switches()); got != c.n {
			t.Fatalf("%s: %d switches, want %d", g.Name, got, c.n)
		}
		if got := diameter(g); got != c.d {
			t.Fatalf("%s: diameter %d, want %d", g.Name, got, c.d)
		}
	}
}

func TestISPLikeValidation(t *testing.T) {
	if _, err := ISPLike("x", 5, 10, 1); err == nil {
		t.Fatal("too few switches must fail")
	}
	if _, err := ISPLike("x", 10, 0, 1); err == nil {
		t.Fatal("zero diameter must fail")
	}
}

func TestISPLikeDeterministic(t *testing.T) {
	a, _ := ISPLike("a", 100, 20, 42)
	b, _ := ISPLike("b", 100, 20, 42)
	if numEdges(a) != numEdges(b) {
		t.Fatal("same seed must give same topology")
	}
}

func TestPathProperties(t *testing.T) {
	g, _ := USCarrierLike()
	sw := g.Switches()
	src, dst := sw[0], sw[len(sw)-1]
	p := g.Path(src, dst, 123)
	if p == nil || p[0] != src || p[len(p)-1] != dst {
		t.Fatal("path endpoints wrong")
	}
	// Consecutive nodes must be adjacent; path must be a shortest path.
	dist, _ := g.BFSFrom(src)
	if len(p)-1 != dist[dst] {
		t.Fatalf("path length %d != BFS distance %d", len(p)-1, dist[dst])
	}
	for i := 0; i+1 < len(p); i++ {
		adjacent := false
		for _, n := range g.Neighbors(p[i]) {
			if n == p[i+1] {
				adjacent = true
			}
		}
		if !adjacent {
			t.Fatalf("path step %d->%d not an edge", p[i], p[i+1])
		}
	}
}

func TestPathStablePerFlow(t *testing.T) {
	g, _ := FatTree(8)
	hosts := g.Hosts()
	p1 := g.Path(hosts[0], hosts[60], 999)
	p2 := g.Path(hosts[0], hosts[60], 999)
	if len(p1) != len(p2) {
		t.Fatal("same flow hash must give same path")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same flow hash must give same path")
		}
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	g, _ := FatTree(8)
	hosts := g.Hosts()
	distinct := map[string]bool{}
	for h := uint64(0); h < 64; h++ {
		p := g.Path(hosts[0], hosts[60], h)
		key := ""
		for _, n := range p {
			key += g.Nodes[n].Label + "/"
		}
		distinct[key] = true
	}
	if len(distinct) < 2 {
		t.Fatal("ECMP never picked an alternate equal-cost path across 64 flows")
	}
}

func TestPathUnreachable(t *testing.T) {
	g := NewGraph("disc")
	a := g.AddNode(Switch, "a")
	b := g.AddNode(Switch, "b")
	if g.Path(a, b, 1) != nil {
		t.Fatal("disconnected nodes must yield nil path")
	}
}

func TestSwitchPairsAtDistance(t *testing.T) {
	g, _ := USCarrierLike()
	for _, l := range []int{4, 12, 24, 36} {
		pairs := g.SwitchPairsAtDistance(l, 10, 5)
		if len(pairs) == 0 {
			t.Fatalf("no switch pairs at distance %d in a D=36 topology", l)
		}
		for _, pr := range pairs {
			dist, _ := g.BFSFrom(pr[0])
			if dist[pr[1]] != l {
				t.Fatalf("pair %v at distance %d, want %d", pr, dist[pr[1]], l)
			}
		}
	}
}
