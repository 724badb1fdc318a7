package rpc

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"adafl/internal/shard"
)

// Exchange is the one timed phase. Concurrently, each peer is sent out(p)
// under a write deadline of send and, if out asks for a reply, must answer
// within recv with a want-typed message for round, which lands in p.Env.
// errs[i] is peers[i]'s failure (nil: served). out runs on the caller's
// goroutine, in peers order.
func Exchange(peers []*Peer, round int, want MsgType, send, recv time.Duration,
	out func(*Peer) (msg Message, reply bool)) (errs []error) {
	errs = make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		msg, reply := out(p)
		p.asked = reply
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			if errs[i] = p.Conn.SendWithin(send, msg); errs[i] != nil || !reply {
				return
			}
			p.Conn.SetReadDeadline(time.Now().Add(recv))
			if errs[i] = p.Conn.RecvInto(&p.Env); errs[i] == nil && (p.Env.Type != want || p.Env.Round != round) {
				errs[i] = fmt.Errorf("expected message type %d for round %d, got type %d for round %d",
					want, round+1, p.Env.Type, p.Env.Round+1)
			}
		}(i, p)
	}
	wg.Wait()
	return errs
}

// Gather is Exchange with its failures acted on: once every peer is served
// or has failed, each failed peer is handed to drop, in peers order, and
// the served ones come back in peers order.
func Gather(peers []*Peer, round int, want MsgType, send, recv time.Duration,
	out func(*Peer) (Message, bool), drop func(*Peer, error)) (served []*Peer) {
	served = make([]*Peer, 0, len(peers))
	for i, err := range Exchange(peers, round, want, send, recv, out) {
		if err != nil {
			drop(peers[i], err)
		} else {
			served = append(served, peers[i])
		}
	}
	return served
}

// Collect is the lockstep update phase over peers in ascending id (a
// Snapshot or part of one): Gather of the MsgUpdate replies out asks for,
// then, on the caller's goroutine and in peers order, each update that
// arrived ingested into tree at weight(p) — a reply stays in its peer's
// Env until the peer's next exchange, so folding after the last one holds
// nothing extra — then Finish, and each sender it quarantines dropped
// once (a peer sends one update, which earns at most one record). It
// returns the peers whose update arrived, quarantined ones included, in
// peers order, the tree's partial (valid until its next Ingest or Finish)
// and the records in Finish's order.
func Collect(tree *shard.Tree, peers []*Peer, round int, send, recv time.Duration,
	out func(*Peer) (Message, bool), weight func(*Peer) float64, drop func(*Peer, error),
) (received []*Peer, part *shard.Partial, quarantined []shard.QuarantineRecord) {
	received = Gather(peers, round, MsgUpdate, send, recv, out, drop)
	received = slices.DeleteFunc(received, func(p *Peer) bool { return !p.asked }) // not selected
	for _, p := range received {
		tree.Ingest(round, shard.Update{Client: p.ID, Weight: weight(p), Delta: p.Env.Update})
	}
	part, quarantined = tree.Finish()
	for _, q := range quarantined {
		drop(FindPeer(received, q.ClientID), fmt.Errorf("quarantined update: %s", q.Reason))
	}
	return received, part, quarantined
}
