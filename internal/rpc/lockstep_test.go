package rpc

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"adafl/internal/compress"
	"adafl/internal/shard"
)

// TestCollectDropsInRosterOrder drives one update phase over net.Pipe
// peers, one of each kind: 0, 2 and 7 answer well; 1's link is dead
// before the select; 3 answers past the deadline; 4 is not selected; 5
// and 8 send updates of the wrong dimension (structural rejects, 8's
// arriving first); 6 sends a norm outlier. The failed peers are dropped
// in roster order, then each quarantined sender once; the received peers
// come back in roster order, the records in Finish's order (structural by
// client, then norm), and the partial holds exactly the three good
// updates.
func TestCollectDropsInRosterOrder(t *testing.T) {
	const round, dim = 3, 16
	const deadline = 200 * time.Millisecond
	update := func(scale float64, d int) *compress.Sparse {
		return &compress.Sparse{Dim: d, Indices: []int32{1, 5, 9}, Values: []float64{scale, -scale, scale / 2}}
	}
	// What each peer's far end sends back, after what delay; nil: nothing.
	replies := map[int]*compress.Sparse{
		0: update(1, dim), 2: update(1.1, dim), 3: update(1, dim), 5: update(1, 2*dim),
		6: update(20, dim), 7: update(0.9, dim), 8: update(1, 2*dim),
	}
	delay := map[int]time.Duration{3: 3 * deadline, 5: deadline / 4}

	var peers []*Peer
	for id := 0; id < 9; id++ {
		p, far := pipePeer(id)
		defer far.Close()
		defer p.Conn.Close()
		peers = append(peers, p)
		if id == 1 {
			far.Close()
			continue
		}
		go func(id int) {
			env, err := far.Recv()
			if err != nil || replies[id] == nil {
				return
			}
			time.Sleep(delay[id])
			far.Send(&Envelope{Type: MsgUpdate, ClientID: id, Round: env.Round, Update: replies[id]})
		}(id)
	}

	var dropped []string
	tree := shard.NewTree(shard.Config{Shards: 1, Dim: dim, MaxNormMult: 3})
	received, part, recs := Collect(tree, peers, round, deadline, deadline,
		func(p *Peer) (Message, bool) {
			return &Envelope{Type: MsgSelect, Round: round, Ratio: 1}, p.ID != 4
		},
		func(*Peer) float64 { return 1 },
		func(p *Peer, err error) {
			kind := "failed"
			if strings.HasPrefix(err.Error(), "quarantined update: ") {
				kind = "quarantined"
			}
			dropped = append(dropped, fmt.Sprintf("%d %s", p.ID, kind))
			p.Conn.Close()
		})

	if want := []string{"1 failed", "3 failed", "5 quarantined", "8 quarantined", "6 quarantined"}; !slices.Equal(dropped, want) {
		t.Errorf("dropped %q, want %q", dropped, want)
	}
	var ids []int
	for _, p := range received {
		ids = append(ids, p.ID)
	}
	if want := []int{0, 2, 5, 6, 7, 8}; !slices.Equal(ids, want) {
		t.Errorf("received %v, want %v", ids, want)
	}
	var recIDs []int
	for _, q := range recs {
		recIDs = append(recIDs, q.ClientID)
		if q.Round != round {
			t.Errorf("client %d's record is for round %d, want %d", q.ClientID, q.Round, round)
		}
	}
	if want := []int{5, 8, 6}; !slices.Equal(recIDs, want) || recs[2].Norm == 0 {
		t.Errorf("records %+v, want clients %v with a norm on 6's", recs, want)
	}
	if part.Count != 3 || part.Weight() != 3 {
		t.Errorf("partial folds %d updates of weight %v, want 3 and 3", part.Count, part.Weight())
	}
}
