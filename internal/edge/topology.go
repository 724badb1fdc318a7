package edge

import (
	"fmt"
	"sort"
)

// EdgeSpec describes one edge aggregator in the topology: its identity
// and client-facing address, both checkpointed with the topology. Addr
// is refreshed from the edge's hello on every (re)registration.
type EdgeSpec struct {
	ID   int
	Addr string
}

// Topology is the root's view of the tree: the edge roster, which edges
// are down, and the client→edge assignment. Epoch increments on every
// assignment change (initial plan, reroute), so clients and checkpoints
// can detect stale assignments.
type Topology struct {
	Epoch int
	// Specs is the edge roster in ascending ID order.
	Specs []EdgeSpec
	// Assign maps client ID → edge ID (-1 = unassigned).
	Assign []int
	// Down marks edges currently out of the tree.
	Down map[int]bool
}

// NewTopology builds a topology over the given specs (sorted by ID;
// duplicate IDs rejected) with every client unassigned.
func NewTopology(specs []EdgeSpec, clients int) (*Topology, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("edge: topology needs at least one edge")
	}
	sorted := append([]EdgeSpec(nil), specs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i, s := range sorted {
		if i > 0 && sorted[i-1].ID == s.ID {
			return nil, fmt.Errorf("edge: duplicate edge ID %d in topology", s.ID)
		}
	}
	assign := make([]int, clients)
	for i := range assign {
		assign[i] = -1
	}
	return &Topology{Specs: sorted, Assign: assign, Down: map[int]bool{}}, nil
}

// Spec returns the spec for edge id (nil when unknown).
func (t *Topology) Spec(id int) *EdgeSpec {
	for i := range t.Specs {
		if t.Specs[i].ID == id {
			return &t.Specs[i]
		}
	}
	return nil
}

// Live returns the up edges in ascending ID order.
func (t *Topology) Live() []EdgeSpec {
	live := make([]EdgeSpec, 0, len(t.Specs))
	for _, s := range t.Specs {
		if !t.Down[s.ID] {
			live = append(live, s)
		}
	}
	return live
}

// Clients returns the IDs assigned to edge id, ascending.
func (t *Topology) Clients(id int) []int {
	var out []int
	for c, e := range t.Assign {
		if e == id {
			out = append(out, c)
		}
	}
	return out
}

// load counts current assignments per edge.
func (t *Topology) load() map[int]int {
	load := map[int]int{}
	for _, e := range t.Assign {
		if e >= 0 {
			load[e]++
		}
	}
	return load
}

// Plan assigns every client over the live topology (see assignClients)
// and advances the epoch: the fleet spreads evenly, client c on the
// (c mod E)-th of E live edges in ID order.
func (t *Topology) Plan() error {
	clients := make([]int, len(t.Assign))
	for i := range clients {
		clients[i] = i
	}
	return t.assignClients(clients)
}

// Reroute marks edge dead down and reassigns its orphaned clients to the
// least-loaded survivors (see assignClients). The epoch advances; the
// orphan list (ascending) is returned.
func (t *Topology) Reroute(dead int) ([]int, error) {
	if t.Spec(dead) == nil {
		return nil, fmt.Errorf("edge: reroute of unknown edge %d", dead)
	}
	t.Down[dead] = true
	orphans := t.Clients(dead)
	if len(orphans) == 0 {
		t.Epoch++
		return nil, nil
	}
	if err := t.assignClients(orphans); err != nil {
		return nil, err
	}
	return orphans, nil
}

// Rejoin readmits a previously down edge (no clients move back; it
// refills on the next reroute or via new arrivals). The epoch advances
// so bootstrapping clients see a fresh topology.
func (t *Topology) Rejoin(id int) {
	if t.Down[id] {
		delete(t.Down, id)
		t.Epoch++
	}
}

// assignClients puts each client, in ascending order, on the live edge
// holding the fewest clients at that moment, ties to the lowest edge ID,
// then advances the epoch. The rule depends on nothing but the
// assignment and the down set, so a plan replays bit for bit.
func (t *Topology) assignClients(clients []int) error {
	live := t.Live()
	if len(live) == 0 {
		return fmt.Errorf("edge: no surviving edge to assign %d clients to", len(clients))
	}
	load := t.load()
	sort.Ints(clients)
	for _, c := range clients {
		best := live[0].ID
		for _, s := range live[1:] {
			if load[s.ID] < load[best] {
				best = s.ID
			}
		}
		t.Assign[c] = best
		load[best]++
	}
	t.Epoch++
	return nil
}
