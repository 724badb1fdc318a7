package main

import (
	"fmt"
	"math"
	"net"
	"path/filepath"
	"time"

	"adafl/internal/compress"
	"adafl/internal/edge"
	"adafl/internal/rpc"
)

// The two ingest workloads fold the same synthetic stream
// (rpc.FleetUpdate) through the flat fleet loop and through the two-tier
// tree. Neither exposes a mid-session pause, so instead of one long
// session they run several equal ones — the first only warms the process
// — and report medians over sessions.
const (
	ingestClients  = 64
	ingestDim      = 20000
	ingestNnz      = 1000
	ingestSessions = 8 // measured sessions at every scale; their length scales
	fleetRounds    = 500
	treeRounds     = 300
	treeEdges      = 2
)

// fleetFrameBytes is the exact uplink cost of one binary update frame.
const fleetFrameBytes = 23 + 12*ingestNnz

// ingestSession is one session's share of the medians.
type ingestSession struct {
	setupS      float64
	updatesPerS float64
	roundS      float64
}

func ingestSessionCount(rc *runCtx) int {
	if rc.quick {
		return 2
	}
	return ingestSessions
}

// referenceFold replays the FleetUpdate stream into a plain accumulator:
// every round adds the clients' mean delta to the global vector.
func referenceFold(seed uint64, rounds int) []float64 {
	global := make([]float64, ingestDim)
	sum := make([]float64, ingestDim)
	upd := &compress.Sparse{}
	for r := 0; r < rounds; r++ {
		for i := range sum {
			sum[i] = 0
		}
		for id := 0; id < ingestClients; id++ {
			rpc.FleetUpdate(upd, seed, r, id, ingestDim, ingestNnz)
			for j, idx := range upd.Indices {
				sum[idx] += upd.Values[j]
			}
		}
		for i, v := range sum {
			global[i] += v / ingestClients
		}
	}
	return global
}

// closeTo reports |got-want| <= tol·max(|want|, floor).
func closeTo(got, want, tol, floor float64) bool {
	return math.Abs(got-want) <= tol*math.Max(math.Abs(want), floor)
}

func fleetIngest(rc *runCtx) (*outcome, error) {
	rounds := rc.budget(fleetRounds, 1)
	root := rc.spans.start("workload", nil)
	defer root.finish()

	wantFrame := float64(fleetFrameBytes)
	if rc.frameBytes != 0 {
		wantFrame = float64(rc.frameBytes)
	}
	o := newOutcome()
	var sessions []ingestSession
	var allocs []float64
	n := ingestSessionCount(rc)
	var checksums []float64
	for i := 0; i <= n; i++ {
		sp := rc.spans.start("session", root)
		start := time.Now()
		res, err := rpc.RunFleet(rpc.FleetConfig{
			Network: "unix", Addr: filepath.Join(rc.tmp, fmt.Sprintf("fleet-%d.sock", i)),
			Wire: rpc.WireBinary, Clients: ingestClients, Rounds: rounds,
			Dim: ingestDim, Nnz: ingestNnz, Seed: rc.seed,
		})
		total := time.Since(start).Seconds()
		sp.finish()
		if err != nil {
			return nil, fmt.Errorf("fleet_ingest: %w", err)
		}
		o.attempted += int64(ingestClients * rounds)
		o.failed += int64(ingestClients*rounds) - res.Updates
		if res.BytesPerUpdate != wantFrame {
			o.gate("session %d: update frame is %v bytes, want %v (23+12·nnz)", i, res.BytesPerUpdate, wantFrame)
		}
		checksums = append(checksums, res.Checksum)
		if i == 0 {
			continue // process warm-up
		}
		// RunFleet times its round loop itself; the rest of the call is
		// listen, 64 dials, registration and teardown.
		sessions = append(sessions, ingestSession{
			setupS:      total - res.WallSeconds,
			updatesPerS: res.UpdatesPerSec,
			roundS:      res.WallSeconds / float64(rounds),
		})
		o.set("uplink_bytes_per_update", res.BytesPerUpdate)
		allocs = append(allocs, res.AllocsPerUpdate)
	}
	rss := peakRSSMB()

	var want float64
	for _, v := range referenceFold(rc.seed, rounds) {
		want += v
	}
	for i, got := range checksums {
		if !closeTo(got, want, 1e-9, 1e-6) {
			o.gate("session %d: global checksum %.12g, reference fold %.12g", i, got, want)
		}
	}
	ingestMedians(o, sessions, rss)
	o.note("medians over %d sessions of %d rounds × %d clients (one more session warmed the process)", n, rounds, ingestClients)
	if rc.traced {
		o.layer["rpc.fleet_allocs_per_update"] = median(allocs)
	}
	return o, nil
}

func ingestMedians(o *outcome, sessions []ingestSession, rss float64) {
	var setup, ups, round []float64
	for _, s := range sessions {
		setup = append(setup, s.setupS)
		ups = append(ups, s.updatesPerS)
		round = append(round, s.roundS)
	}
	o.set("setup_s", median(setup))
	o.set("updates_per_s", median(ups))
	o.set("round_s_p50", median(round))
	o.set("peak_rss_mb", rss)
}

// treeSession runs root + edges + clients once.
type treeSession struct {
	ingestSession
	res      *edge.RootResult
	edgeRes  []*edge.EdgeResult
	roundEnd []time.Time
}

func runTreeSession(rc *runCtx, rounds int, parent *span) (*treeSession, error) {
	sp := rc.spans.start("session", parent)
	defer sp.finish()
	setup := rc.spans.start("setup", sp)
	start := time.Now()
	ts := &treeSession{}
	rootSrv, err := edge.NewRoot(edge.RootConfig{
		NumEdges: treeEdges, Clients: ingestClients, Rounds: rounds, Dim: ingestDim,
		Wire: rpc.WireBinary, Metrics: rc.reg, Events: rc.events, Logf: quietLogf,
		OnRound: func(round int, _ []float64) { ts.roundEnd = append(ts.roundEnd, time.Now()) },
	})
	if err != nil {
		return nil, err
	}
	type rootOut struct {
		res *edge.RootResult
		err error
	}
	rootCh := make(chan rootOut, 1)
	go func() {
		res, err := rootSrv.Run()
		rootCh <- rootOut{res, err}
	}()
	edgeErr := make(chan error, treeEdges)
	ts.edgeRes = make([]*edge.EdgeResult, treeEdges)
	var edges []*edge.Edge
	for i := 0; i < treeEdges; i++ {
		e, err := edge.NewEdge(edge.EdgeConfig{
			ID: i, RootAddr: rootSrv.EdgeAddr(), Dim: ingestDim, Wire: rpc.WireBinary,
			Seed: rc.seed, Metrics: rc.reg, Events: rc.events, Logf: quietLogf,
		})
		if err != nil {
			// Unblock what already runs before giving up.
			rootSrv.Kill()
			for _, started := range edges {
				started.Kill()
			}
			return nil, err
		}
		edges = append(edges, e)
		go func(i int, e *edge.Edge) {
			var err error
			ts.edgeRes[i], err = e.Run()
			edgeErr <- err
		}(i, e)
	}
	setup.finish()
	connect := rc.spans.start("connect", sp)
	clientsErr := make(chan error, 1)
	go func() {
		clientsErr <- edge.RunClients(edge.ClientsConfig{
			Bootstrap: rootSrv.BootstrapAddr(), Lo: 0, Hi: ingestClients,
			Dim: ingestDim, Nnz: ingestNnz, Seed: rc.seed, Wire: rpc.WireBinary, Logf: quietLogf,
		})
	}()
	connect.finish()

	out := <-rootCh
	var firstErr error
	if out.err != nil {
		firstErr = fmt.Errorf("root: %w", out.err)
	}
	for range edges {
		if err := <-edgeErr; err != nil && firstErr == nil {
			firstErr = fmt.Errorf("edge: %w", err)
		}
	}
	if err := <-clientsErr; err != nil && firstErr == nil {
		firstErr = fmt.Errorf("clients: %w", err)
	}
	if firstErr != nil {
		return nil, fmt.Errorf("tree_ingest: %w", firstErr)
	}
	ts.res = out.res
	if len(ts.roundEnd) != rounds {
		return nil, fmt.Errorf("tree_ingest: %d of %d rounds completed", len(ts.roundEnd), rounds)
	}
	durs := roundDurations(ts.roundEnd)
	var folded int
	for _, r := range out.res.History[len(out.res.History)-len(durs):] {
		folded += r.Folded
	}
	ts.setupS = ts.roundEnd[0].Sub(start).Seconds()
	ts.updatesPerS = float64(folded) / sum(durs)
	ts.roundS = median(durs)
	return ts, nil
}

func treeIngest(rc *runCtx) (*outcome, error) {
	rounds := rc.budget(treeRounds, 1)
	if rounds <= warmupRounds {
		rounds = warmupRounds + 1
	}
	root := rc.spans.start("workload", nil)
	defer root.finish()

	o := newOutcome()
	want := referenceFold(rc.seed, rounds)
	var sessions []ingestSession
	var foldedPerS []float64
	n := ingestSessionCount(rc)
	for i := 0; i <= n; i++ {
		ts, err := runTreeSession(rc, rounds, root)
		if err != nil {
			return nil, err
		}
		o.attempted += int64(ingestClients * rounds)
		var folded, quarantined int64
		for _, er := range ts.edgeRes {
			folded += er.Folded
			quarantined += int64(er.Quarantined)
		}
		o.failed += int64(ingestClients*rounds) - folded
		if quarantined != 0 || ts.res.Reroutes != 0 {
			o.gate("session %d: %d quarantines, %d reroutes (want none)", i, quarantined, ts.res.Reroutes)
		}
		for _, r := range ts.res.History {
			if r.Folded != ingestClients || r.Edges != treeEdges {
				o.gate("session %d round %d: merged %d updates from %d edges, want %d from %d",
					i, r.Round+1, r.Folded, r.Edges, ingestClients, treeEdges)
				break
			}
		}
		for j, v := range ts.res.Global {
			if !closeTo(v, want[j], 1e-9, 1e-6) {
				o.gate("session %d: global[%d] = %.12g, reference fold %.12g", i, j, v, want[j])
				break
			}
		}
		if i == 0 {
			continue // process warm-up
		}
		sessions = append(sessions, ts.ingestSession)
		// What the edges folded after round 1, over the wall from the end
		// of round 1 to the end of the last round.
		wall := ts.roundEnd[rounds-1].Sub(ts.roundEnd[0]).Seconds()
		foldedPerS = append(foldedPerS, float64(folded-ingestClients)/wall)
	}
	ingestMedians(o, sessions, peakRSSMB())
	o.note("medians over %d sessions of %d rounds × %d clients behind %d edges (one more session warmed the process; first %d rounds of each left out)",
		n, rounds, ingestClients, treeEdges, warmupRounds)
	if rc.traced {
		o.layer["edge.root_round_s_p50"] = o.metrics["round_s_p50"]
		o.layer["edge.folded_per_s"] = median(foldedPerS)
		frame, err := partialFrameBytes()
		if err != nil {
			return nil, err
		}
		o.layer["edge.partial_bytes_per_round"] = float64(treeEdges * frame)
	}
	return o, nil
}

// partialFrameBytes weighs one MsgEdgePartial frame at ingestDim on the
// binary wire by sending it down a pipe.
func partialFrameBytes() (int, error) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		recv := rpc.NewBinaryConn(b, nil)
		var env rpc.Envelope
		_ = recv.RecvInto(&env) // the sender's error is the one reported
	}()
	conn := rpc.NewBinaryConn(a, nil)
	err := conn.Send(&rpc.Envelope{Type: rpc.MsgEdgePartial, NumSamples: ingestClients / treeEdges,
		WeightSum: ingestClients / treeEdges, Params: make([]float64, ingestDim)})
	return int(conn.BytesSent()), err
}
