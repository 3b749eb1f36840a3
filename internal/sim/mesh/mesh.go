// Package mesh models the 2D-mesh on-chip interconnect of the paper's
// evaluation platform (Table 2: 1-cycle links, 4-cycle routers). It
// provides hop counts and message latencies between cores, the home-node
// mapping for cache lines (the shared L2 is banked and distributed, one
// bank and directory slice per node), and broadcast latencies for the
// addr-list protocol of §3.2.
package mesh

import "fmt"

// Topology is a 2D mesh of nodes. Node i sits at row i/Width, column
// i%Width. The mesh uses XY (dimension-ordered) routing, so the hop count
// between two nodes is their Manhattan distance.
type Topology struct {
	nodes         int
	width, height int
	linkLatency   uint64
	routerLatency uint64
	// at[i] is node i's (row, column), so that hop counts need no division.
	at []place
	// homeMask is nodes-1 when nodes is a power of two, and 0 otherwise.
	homeMask uint64
}

// place is a node's row and column.
type place struct{ row, col int32 }

// New builds a mesh for the given number of nodes with the given per-link
// and per-router latencies (in cycles). The mesh is as square as possible:
// width = ceil(sqrt(nodes)). New panics when nodes is not positive.
func New(nodes int, linkLatency, routerLatency uint64) *Topology {
	if nodes <= 0 {
		panic(fmt.Sprintf("mesh: non-positive node count %d", nodes))
	}
	w := 1
	for w*w < nodes {
		w++
	}
	h := (nodes + w - 1) / w
	t := &Topology{nodes: nodes, width: w, height: h, linkLatency: linkLatency, routerLatency: routerLatency}
	t.at = make([]place, nodes)
	for i := range t.at {
		t.at[i] = place{row: int32(i / w), col: int32(i % w)}
	}
	if nodes&(nodes-1) == 0 {
		t.homeMask = uint64(nodes - 1)
	}
	return t
}

// Nodes returns the number of nodes.
func (t *Topology) Nodes() int { return t.nodes }

// Width returns the mesh width in columns.
func (t *Topology) Width() int { return t.width }

// Height returns the mesh height in rows.
func (t *Topology) Height() int { return t.height }

// Coordinates returns the (row, column) of a node.
func (t *Topology) Coordinates(node int) (row, col int) {
	t.check(node)
	return int(t.at[node].row), int(t.at[node].col)
}

func (t *Topology) check(node int) {
	if node < 0 || node >= t.nodes {
		panic(fmt.Sprintf("mesh: node %d out of range [0,%d)", node, t.nodes))
	}
}

// Hops returns the Manhattan distance between two nodes. It panics when
// either node is out of range.
func (t *Topology) Hops(from, to int) int {
	a, b := t.at[from], t.at[to]
	return abs(int(a.row-b.row)) + abs(int(a.col-b.col))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Latency returns the one-way message latency between two nodes: each hop
// traverses one link and one router, plus one router at the destination
// (injection at the source is free). Same-node messages cost one router
// pass, modelling the local network interface.
func (t *Topology) Latency(from, to int) uint64 {
	hops := uint64(t.Hops(from, to))
	return hops*(t.linkLatency+t.routerLatency) + t.routerLatency
}

// RoundTrip returns the request/response latency between two nodes.
func (t *Topology) RoundTrip(from, to int) uint64 {
	return t.Latency(from, to) + t.Latency(to, from)
}

// MaxLatencyFrom returns the largest one-way latency from the given node to
// any other node, the time for a broadcast's slowest leg.
func (t *Topology) MaxLatencyFrom(from int) uint64 {
	var max uint64
	for n := 0; n < t.nodes; n++ {
		if n == from {
			continue
		}
		if l := t.Latency(from, n); l > max {
			max = l
		}
	}
	return max
}

// BroadcastLatency returns the latency of broadcasting a message from the
// given node to all other nodes and collecting every acknowledgement:
// requests and acks to different nodes overlap, so the total is twice the
// slowest one-way leg.
func (t *Topology) BroadcastLatency(from int) uint64 {
	return 2 * t.MaxLatencyFrom(from)
}

// Home returns the node owning the directory slice and L2 bank of a cache
// line: lines are interleaved across nodes by line address.
func (t *Topology) Home(line uint64) int {
	if t.homeMask != 0 {
		return int(line & t.homeMask)
	}
	return int(line % uint64(t.nodes))
}
