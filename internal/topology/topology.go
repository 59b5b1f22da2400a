// Package topology provides the network graphs the PINT evaluation runs
// over (§6): data-center fat trees, the HPCC leaf-spine instance, and
// ISP-like wide-area graphs standing in for the Topology Zoo's Kentucky
// Datalink (753 switches, diameter 59) and US Carrier (157 switches,
// diameter 36) — the Zoo files themselves are not redistributable here, so
// deterministic generators reproduce the property Fig 10 depends on: the
// existence of shortest paths of every length up to the diameter.
//
// The package also computes shortest-path routing tables (BFS) with ECMP
// tie-breaking by flow hash, which both the packet simulator and the
// path-tracing experiments consume.
package topology

import (
	"fmt"

	"repro/internal/hash"
)

// NodeKind distinguishes hosts (traffic endpoints) from switches
// (telemetry encoders).
type NodeKind int

const (
	// Switch nodes run PINT/INT encoders.
	Switch NodeKind = iota
	// Host nodes source and sink traffic.
	Host
)

// Node is one vertex.
type Node struct {
	ID   int
	Kind NodeKind
	// SwitchID is the telemetry identifier switches embed in digests
	// (32-bit in deployments; distinct per switch).
	SwitchID uint64
	// Label is a human-readable role tag ("core3", "tor7", "host12").
	Label string
}

// Graph is an undirected multigraph-free network topology.
type Graph struct {
	Name  string
	Nodes []Node
	adj   [][]int // adjacency: node -> neighbor node IDs (sorted by insertion)
}

// NewGraph creates an empty topology.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(kind NodeKind, label string) int {
	id := len(g.Nodes)
	g.Nodes = append(g.Nodes, Node{
		ID:       id,
		Kind:     kind,
		SwitchID: uint64(0x5A000000) + uint64(id), // distinct, fits 32 bits
		Label:    label,
	})
	g.adj = append(g.adj, nil)
	return id
}

// AddEdge connects two nodes bidirectionally. Duplicate and self edges are
// rejected.
func (g *Graph) AddEdge(a, b int) error {
	if a == b {
		return fmt.Errorf("topology: self edge at %d", a)
	}
	if a < 0 || b < 0 || a >= len(g.Nodes) || b >= len(g.Nodes) {
		return fmt.Errorf("topology: edge (%d,%d) out of range", a, b)
	}
	for _, n := range g.adj[a] {
		if n == b {
			return fmt.Errorf("topology: duplicate edge (%d,%d)", a, b)
		}
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	return nil
}

// Neighbors returns a node's adjacency list (shared; do not mutate).
func (g *Graph) Neighbors(id int) []int { return g.adj[id] }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// Switches returns the IDs of all switch nodes.
func (g *Graph) Switches() []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Kind == Switch {
			out = append(out, n.ID)
		}
	}
	return out
}

// Hosts returns the IDs of all host nodes.
func (g *Graph) Hosts() []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Kind == Host {
			out = append(out, n.ID)
		}
	}
	return out
}

// SwitchIDUniverse returns every switch's telemetry identifier — the value
// universe V the hashed decoding mode of §4.2 filters against.
func (g *Graph) SwitchIDUniverse() []uint64 {
	var out []uint64
	for _, n := range g.Nodes {
		if n.Kind == Switch {
			out = append(out, n.SwitchID)
		}
	}
	return out
}

// BFSFrom computes hop distances and a parent-set DAG from src: parents[v]
// lists all neighbors of v on *some* shortest src→v path, enabling ECMP.
func (g *Graph) BFSFrom(src int) (dist []int, parents [][]int) {
	n := len(g.Nodes)
	dist = make([]int, n)
	parents = make([][]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				parents[v] = []int{u}
				queue = append(queue, v)
			} else if dist[v] == dist[u]+1 {
				parents[v] = append(parents[v], u)
			}
		}
	}
	return dist, parents
}

// Path returns one deterministic ECMP shortest path from src to dst
// (inclusive of both endpoints), tie-broken by the flow hash so different
// flows may take different equal-cost paths while one flow is stable.
// It returns nil if dst is unreachable.
func (g *Graph) Path(src, dst int, flowHash uint64) []int {
	dist, parents := g.BFSFrom(src)
	if dist[dst] < 0 {
		return nil
	}
	path := []int{dst}
	cur := dst
	for cur != src {
		ps := parents[cur]
		pick := ps[int(hash.Mix64(flowHash^uint64(cur))%uint64(len(ps)))]
		path = append(path, pick)
		cur = pick
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// SwitchPath returns the switch IDs (telemetry values) along the path from
// src to dst, excluding host endpoints — the message blocks a path-tracing
// query must recover.
func (g *Graph) SwitchPath(src, dst int, flowHash uint64) []uint64 {
	p := g.Path(src, dst, flowHash)
	var out []uint64
	for _, id := range p {
		if g.Nodes[id].Kind == Switch {
			out = append(out, g.Nodes[id].SwitchID)
		}
	}
	return out
}

// SwitchPairsAtDistance returns up to max switch pairs whose shortest-path
// distance is exactly l — the per-path-length sample populations of Fig 10.
// Deterministic given the seed.
func (g *Graph) SwitchPairsAtDistance(l, max int, seed uint64) [][2]int {
	sw := g.Switches()
	rng := hash.NewRNG(seed)
	var out [][2]int
	// Iterate sources in a seeded random order so samples are not biased
	// toward low node IDs.
	for _, si := range rng.Perm(len(sw)) {
		s := sw[si]
		dist, _ := g.BFSFrom(s)
		for _, ti := range rng.Perm(len(sw)) {
			t := sw[ti]
			if t != s && dist[t] == l {
				out = append(out, [2]int{s, t})
				if len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}
