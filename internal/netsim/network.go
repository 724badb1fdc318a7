package netsim

import (
	"container/heap"
	"fmt"

	"adafl/internal/stats"
)

// Network bundles the per-client links of a federation together with
// per-client RNG streams, providing the FL engines a single object to ask
// "when would this transfer complete?".
type Network struct {
	links []Link
	rngs  []*stats.RNG
}

// NewNetwork builds a network over the given client links, deriving one
// jitter/loss RNG stream per client from seed.
func NewNetwork(links []Link, seed uint64) *Network {
	root := stats.NewRNG(seed)
	n := &Network{links: append([]Link(nil), links...), rngs: make([]*stats.RNG, len(links))}
	for i := range links {
		if err := links[i].Validate(); err != nil {
			panic(fmt.Sprintf("netsim: client %d: %v", i, err))
		}
		n.rngs[i] = root.Split()
	}
	return n
}

// NumClients returns the number of attached clients.
func (n *Network) NumClients() int { return len(n.links) }

// Link returns client i's link description.
func (n *Network) Link(i int) Link { return n.links[i] }

// SetLink replaces client i's link (e.g. when a device roams networks).
func (n *Network) SetLink(i int, l Link) {
	if err := l.Validate(); err != nil {
		panic(err)
	}
	n.links[i] = l
}

// Transfer returns the duration of a size-byte transfer for client i in
// direction d starting at now, and whether it was lost.
func (n *Network) Transfer(i int, d Direction, size int, now float64) (dur float64, lost bool) {
	return n.links[i].TransferTime(d, size, now, n.rngs[i])
}

// Bandwidths returns client i's effective (up, down) bandwidth at now.
func (n *Network) Bandwidths(i int, now float64) (up, down float64) {
	return n.links[i].Bandwidths(now)
}

// UniformNetwork builds a network where every client has the same link.
func UniformNetwork(numClients int, l Link, seed uint64) *Network {
	links := make([]Link, numClients)
	for i := range links {
		links[i] = l
	}
	return NewNetwork(links, seed)
}

// Event is a scheduled callback in simulated time.
type Event struct {
	Time float64
	// Seq breaks ties deterministically (FIFO for equal times).
	Seq int
	Fn  func()
}

// EventQueue is a min-heap of events ordered by (Time, Seq). It is the
// core of the asynchronous FL engines.
type EventQueue struct {
	h   eventHeap
	seq int
	now float64
}

// NewEventQueue returns an empty queue at time 0.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Now returns the current simulated time (the time of the last popped
// event, or 0).
func (q *EventQueue) Now() float64 { return q.now }

// Schedule enqueues fn to run at time t. Scheduling in the past panics:
// that is always a protocol bug.
func (q *EventQueue) Schedule(t float64, fn func()) {
	if t < q.now {
		panic(fmt.Sprintf("netsim: scheduling event at %v before now %v", t, q.now))
	}
	q.seq++
	heap.Push(&q.h, &Event{Time: t, Seq: q.seq, Fn: fn})
}

// Step pops and runs the earliest event, advancing Now. It reports whether
// an event was available.
func (q *EventQueue) Step() bool {
	if q.h.Len() == 0 {
		return false
	}
	e := heap.Pop(&q.h).(*Event)
	q.now = e.Time
	e.Fn()
	return true
}

// RunUntil processes events until the queue is empty or the next event is
// after deadline. Events scheduled during execution participate.
func (q *EventQueue) RunUntil(deadline float64) {
	for q.h.Len() > 0 && q.h[0].Time <= deadline {
		q.Step()
	}
	if q.now < deadline {
		q.now = deadline
	}
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].Seq < h[j].Seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
