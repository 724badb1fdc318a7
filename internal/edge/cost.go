// Package edge implements the two-tier federation: regional edge
// aggregators accept fleet clients over the existing wire protocol, fold
// their updates into shard.Partials through the shared screen/quarantine
// path, and stream only the partial upstream to a root that merges
// partial-of-partials bit-deterministically (ascending edge ID, fixed
// fold order). The headline property is robustness: edges heartbeat the
// root, a dead edge is detected within a heartbeat timeout, and the root
// replans over a live cost graph (Dijkstra; link costs from
// internal/netsim bandwidth/latency plus scenario region state) to
// reassign the orphaned clients to the cheapest surviving siblings while
// the round completes with partial aggregation. See DESIGN.md §Edge
// federation for the topology, the heartbeat/reroute state machine and
// the determinism contract.
package edge

import (
	"container/heap"
	"math"
	"sort"
	"strconv"

	"adafl/internal/netsim"
)

// Arc is one directed, weighted edge of the cost graph.
type Arc struct {
	To   string
	Cost float64
}

// Graph is the live cost topology the root replans over when an edge
// dies: a small weighted graph over string node IDs ("root", "edge:N").
// It is rebuilt per reroute from the surviving topology, so there is no
// incremental-update state to corrupt.
type Graph struct {
	adj map[string][]Arc
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{adj: map[string][]Arc{}} }

// AddNode ensures id exists (isolated until arcs are added).
func (g *Graph) AddNode(id string) {
	if _, ok := g.adj[id]; !ok {
		g.adj[id] = nil
	}
}

// AddArc adds a directed arc from→to.
func (g *Graph) AddArc(from, to string, cost float64) {
	g.AddNode(from)
	g.AddNode(to)
	g.adj[from] = append(g.adj[from], Arc{To: to, Cost: cost})
}

// AddLink adds arcs both ways (a physical link).
func (g *Graph) AddLink(a, b string, cost float64) {
	g.AddArc(a, b, cost)
	g.AddArc(b, a, cost)
}

// Dijkstra returns the cheapest-path cost from src to every reachable
// node (src included at 0). Unreachable nodes are absent. Arcs with
// non-finite or negative cost are treated as absent.
func (g *Graph) Dijkstra(src string) map[string]float64 {
	dist := map[string]float64{}
	if _, ok := g.adj[src]; !ok {
		return dist
	}
	pq := &costHeap{{node: src, cost: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(costItem)
		if d, ok := dist[it.node]; ok && d <= it.cost {
			continue
		}
		dist[it.node] = it.cost
		for _, a := range g.adj[it.node] {
			if a.Cost < 0 || math.IsInf(a.Cost, 1) || math.IsNaN(a.Cost) {
				continue
			}
			next := it.cost + a.Cost
			if d, ok := dist[a.To]; !ok || next < d {
				heap.Push(pq, costItem{node: a.To, cost: next})
			}
		}
	}
	return dist
}

type costItem struct {
	node string
	cost float64
}

type costHeap []costItem

func (h costHeap) Len() int            { return len(h) }
func (h costHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h costHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *costHeap) Push(x interface{}) { *h = append(*h, x.(costItem)) }
func (h *costHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// LinkCost scores shipping size bytes over l: propagation delay plus
// serialisation time at the uplink bandwidth — netsim's transfer-time
// model without jitter or loss, so replanning is deterministic. A link
// with no uplink bandwidth costs +Inf (unusable; Dijkstra skips it,
// which is how an edge whose direct backhaul is gone gets scored through
// a regional relay instead).
func LinkCost(l netsim.Link, size int64) float64 {
	if l.UpBps <= 0 {
		return math.Inf(1)
	}
	return l.LatencyS + float64(size)/l.UpBps
}

// CostModel parameterises client reassignment. The total cost of putting
// client c on surviving edge e is
//
//	LinkCost(e.Access, UpdateBytes)        the client's per-round uplink
//	+ upstream(e)                          e's cheapest path to the root
//	                                       (Dijkstra over the live graph,
//	                                       PartialBytes per hop)
//	+ CrossRegionPenalty                   if c's region != e's region
//	+ LoadPenalty · load(e)                clients already on e, so
//	                                       orphans spread instead of
//	                                       dogpiling the single cheapest
//	                                       survivor
//
// which folds the link quality the adaptive-selection work scores
// clients by into the rerouting decision.
type CostModel struct {
	// UpdateBytes is the expected per-round uplink volume of one client
	// (a sparse update frame). 0 means 4KB.
	UpdateBytes int64
	// PartialBytes is the edge→root partial frame size (8·dim + header).
	// 0 means 64KB.
	PartialBytes int64
	// LoadPenalty is the cost added per already-assigned client. 0 means
	// 0.001 (one millisecond-equivalent per client), enough to balance
	// ties without overriding real link differences.
	LoadPenalty float64
	// CrossRegionPenalty is added when a client is assigned outside its
	// own region. 0 disables it.
	CrossRegionPenalty float64
	// RegionOf maps a client to its scenario region ("" = none); nil
	// means no region affinity.
	RegionOf func(client int) string
	// RegionDown reports whether a region is currently dark (scenario
	// outage state): edges in a dark region are not reassignment
	// candidates. nil means no region is dark.
	RegionDown func(region string) bool
}

func (cm CostModel) updateBytes() int64 {
	if cm.UpdateBytes > 0 {
		return cm.UpdateBytes
	}
	return 4 << 10
}

func (cm CostModel) partialBytes() int64 {
	if cm.PartialBytes > 0 {
		return cm.PartialBytes
	}
	return 64 << 10
}

func (cm CostModel) loadPenalty() float64 {
	if cm.LoadPenalty > 0 {
		return cm.LoadPenalty
	}
	return 1e-3
}

// buildGraph assembles the live cost graph: every up edge links to the
// root over its uplink, and edges sharing a region link laterally at the
// cheaper of their access costs (the regional backhaul assumption) —
// which is what gives Dijkstra real work: an edge whose direct uplink is
// gone or degraded is still reachable, and scored, through a same-region
// sibling.
func buildGraph(specs []EdgeSpec, down map[int]bool, cm CostModel) *Graph {
	g := NewGraph()
	g.AddNode("root")
	live := make([]EdgeSpec, 0, len(specs))
	for _, s := range specs {
		if !down[s.ID] {
			live = append(live, s)
		}
	}
	for _, s := range live {
		g.AddLink(nodeID(s.ID), "root", LinkCost(s.Uplink, cm.partialBytes()))
	}
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			a, b := live[i], live[j]
			if a.Region == "" || a.Region != b.Region {
				continue
			}
			lateral := math.Min(LinkCost(a.Access, cm.partialBytes()), LinkCost(b.Access, cm.partialBytes()))
			g.AddLink(nodeID(a.ID), nodeID(b.ID), lateral)
		}
	}
	return g
}

func nodeID(edge int) string { return "edge:" + strconv.Itoa(edge) }

// planAssign assigns each of clients (processed in ascending order) to
// the cheapest candidate edge under cm, mutating load as it goes so
// consecutive assignments spread. candidates must be sorted by ID; ties
// break toward the lowest edge ID, so the plan is deterministic. Returns
// nil and false when no candidate is reachable.
func planAssign(clients []int, candidates []EdgeSpec, upstream map[string]float64,
	load map[int]int, cm CostModel) (map[int]int, bool) {
	sort.Ints(clients)
	assign := make(map[int]int, len(clients))
	for _, c := range clients {
		bestID, bestCost := -1, math.Inf(1)
		for _, e := range candidates {
			up, ok := upstream[nodeID(e.ID)]
			if !ok {
				continue // unreachable from the root
			}
			cost := LinkCost(e.Access, cm.updateBytes()) + up + cm.loadPenalty()*float64(load[e.ID])
			if cm.RegionOf != nil && cm.CrossRegionPenalty > 0 {
				if r := cm.RegionOf(c); r != "" && r != e.Region {
					cost += cm.CrossRegionPenalty
				}
			}
			if cost < bestCost {
				bestID, bestCost = e.ID, cost
			}
		}
		if bestID < 0 {
			return nil, false
		}
		assign[c] = bestID
		load[bestID]++
	}
	return assign, true
}
