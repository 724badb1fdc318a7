package rpc

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"adafl/internal/checkpoint"
	"adafl/internal/compress"
	"adafl/internal/netsim"
	"adafl/internal/obs"
)

// scriptedUpdate returns a deterministic, structurally valid sparse
// update that depends only on (client, round), so two sessions fed by
// scripted clients see byte-identical uplink traffic. Magnitudes differ
// per client so the float sums are sensitive to fold order.
func scriptedUpdate(client, round, dim int) *compress.Sparse {
	idx := make([]int32, 8)
	vals := make([]float64, 8)
	for i := range idx {
		idx[i] = int32((round*11 + i*3) % dim)
		vals[i] = 0.01 * float64(i+1) * float64(round+1) / float64(3*client+7)
	}
	return &compress.Sparse{Dim: dim, Indices: idx, Values: vals}
}

// sameBroadcasts fails the test unless the two MsgModel sequences are
// bit for bit identical.
func sameBroadcasts(t *testing.T, what string, a, b [][]float64, rounds int) {
	t.Helper()
	if len(a) != len(b) || len(a) < rounds {
		t.Fatalf("%s: broadcast counts %d vs %d, want %d each", what, len(a), len(b), rounds)
	}
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("%s: round %d: broadcast dims differ", what, r)
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("%s: round %d: global[%d] differs bitwise: %v vs %v", what, r, i, a[r][i], b[r][i])
			}
		}
	}
}

// TestWireReplayBitDeterministic pins the replay contract on the wire:
// two same-seed sessions whose updates arrive in different orders
// broadcast bit-identical models every round. Three real clients (ids 0,
// 2, 4) train, and a scripted observer (id 1) records every MsgModel.
// Injected latency and jitter hold back client 0's writes in one session
// and client 4's in the other. The fold is fixed point, so even a server
// that folded in arrival order would not diverge; the test pins the
// replay itself — training, selection and apply — across the two.
func TestWireReplayBitDeterministic(t *testing.T) {
	const rounds = 5
	ids := []int{0, 2, 4}
	run := func(slow int) [][]float64 {
		env := newChaosEnv(4, 480, 12, 16, 61)
		scfg := env.serverConfig(rounds)
		scfg.Shards = 2
		srv, err := NewServer(scfg)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := make([]ClientConfig, len(ids))
		for i, id := range ids {
			cfgs[i] = env.clientConfig(i, srv.Addr())
			cfgs[i].ID = id
			if id == slow {
				cfgs[i].Fault = &FaultConfig{Link: &netsim.Link{UpBps: 1e6, DownBps: 1e6, LatencyS: 0.025, JitterS: 0.01}}
			}
		}
		clientsDone := make(chan []error, 1)
		go func() {
			_, errs := runClients(cfgs)
			clientsDone <- errs
		}()
		obsCh := make(chan *evilResult, 1)
		go func() {
			obsCh <- runEvilClient(srv.Addr(), 1, env.parts[3].Len(), 0,
				func(round, dim int) *compress.Sparse { return scriptedUpdate(1, round, dim) })
		}()
		res, err := srv.Run()
		if err != nil {
			t.Fatalf("slow=%d session: %v", slow, err)
		}
		for i, cerr := range <-clientsDone {
			if cerr != nil {
				t.Errorf("slow=%d: client %d: %v", slow, ids[i], cerr)
			}
		}
		if len(res.Rounds) != rounds || res.Evictions != 0 {
			t.Fatalf("slow=%d: %d/%d rounds, %d evictions", slow, len(res.Rounds), rounds, res.Evictions)
		}
		return (<-obsCh).broadcasts
	}
	sameBroadcasts(t, "client 0 slow vs client 4 slow", run(0), run(4), rounds)
}

// TestNormGateFiresE2E: four scripted clients, the attacker holding the
// lowest id and shipping a structurally valid update of absurd norm (inside
// the fold window). The gate judges the round median at the barrier, so it
// must fire wherever the attacker's update lands in the arrival order, and
// every broadcast must be bitwise what it is when the attacker's update
// simply never arrives (a nil update is a protocol error: evicted like a
// dead link, not quarantined).
func TestNormGateFiresE2E(t *testing.T) {
	const rounds, attacker = 3, 0
	run := func(attack bool) ([][]float64, *ServerResult) {
		env := newChaosEnv(4, 480, 12, 16, 67)
		env.cfg.K = 4 // everyone is asked for an update every round
		scfg := env.serverConfig(rounds)
		scfg.MaxUpdateNorm = 5
		var srv *Server
		scfg.OnRound = func(RoundRecord) { waitForClient(t, srv, attacker, 10*time.Second) }
		srv, err := NewServer(scfg)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *evilResult, 4)
		for id := 0; id < 4; id++ {
			id := id
			go func() {
				done <- runEvilClient(srv.Addr(), id, 120, 100, func(round, dim int) *compress.Sparse {
					u := scriptedUpdate(id, round, dim)
					if id != attacker {
						return u
					}
					if !attack {
						return nil
					}
					for i := range u.Values {
						u.Values[i] = 1 // ~100× the honest norm, a product of 1/4
					}
					return u
				})
			}()
		}
		res, err := srv.Run()
		if err != nil {
			t.Fatalf("attack=%v: %v", attack, err)
		}
		var observed [][]float64
		for i := 0; i < 4; i++ {
			if r := <-done; len(r.broadcasts) >= rounds && r.redials == 0 {
				observed = r.broadcasts // any honest client: it saw every round
			}
		}
		if len(res.Rounds) != rounds {
			t.Fatalf("attack=%v: completed %d/%d rounds", attack, len(res.Rounds), rounds)
		}
		return observed, res
	}
	clean, cleanRes := run(false)
	if len(cleanRes.Quarantines) != 0 {
		t.Fatalf("reference run quarantined %+v", cleanRes.Quarantines)
	}
	attacked, res := run(true)
	for _, rec := range res.Rounds {
		if rec.Quarantined != 1 || rec.Received != 3 {
			t.Errorf("round %d: quarantined %d received %d, want 1/3", rec.Round, rec.Quarantined, rec.Received)
		}
	}
	for _, q := range res.Quarantines {
		if q.ClientID != attacker || !strings.Contains(q.Reason, "round median") {
			t.Errorf("quarantined client %d: %s", q.ClientID, q.Reason)
		}
	}
	sameBroadcasts(t, "attacked vs attacker silent", attacked, clean, rounds)
}

// TestChaosQuarantineAndEviction is the acceptance chaos run: four
// clients while one honest client's link is hard-cut mid-session and a
// hostile client ships malformed updates every round. The server must
// finish every round, quarantine the poison at the barrier screen, evict
// the cut straggler, and checkpoint every round.
func TestChaosQuarantineAndEviction(t *testing.T) {
	const rounds = 12
	env := newChaosEnv(4, 600, 12, 16, 83)
	ckptDir := t.TempDir()
	scfg := env.serverConfig(rounds)
	scfg.CheckpointDir = ckptDir
	var srv *Server
	scfg.OnRound = func(rec RoundRecord) {
		// Hold each boundary until the (repeatedly evicted) hostile
		// client has redialled, so it is screened every round.
		waitForClient(t, srv, 3, 10*time.Second)
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}

	cfgs := make([]ClientConfig, 3)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, srv.Addr())
	}
	// Client 2: link dies permanently after its early uploads (straggler
	// cut mid-session; no retries, stays dead).
	cfgs[2].Fault = &FaultConfig{CutAfterBytes: 20_000}
	cfgs[2].MaxRetries = 0

	honestCh := make(chan []error, 1)
	go func() {
		_, errs := runClients(cfgs)
		honestCh <- errs
	}()
	evilCh := make(chan *evilResult, 1)
	go func() {
		evilCh <- runEvilClient(srv.Addr(), 3, 120, 100,
			func(round, dim int) *compress.Sparse {
				return &compress.Sparse{Dim: dim,
					Indices: []int32{1, int32(dim + 9)}, Values: []float64{2, 4}}
			})
	}()

	res, err := srv.Run()
	if err != nil {
		t.Fatalf("chaos session aborted: %v", err)
	}
	<-evilCh
	errs := <-honestCh
	for _, i := range []int{0, 1} {
		if errs[i] != nil {
			t.Errorf("healthy client %d: %v", i, errs[i])
		}
	}
	if errs[2] == nil {
		t.Error("cut client unexpectedly survived")
	}

	if len(res.Rounds) != rounds {
		t.Fatalf("completed %d/%d rounds", len(res.Rounds), rounds)
	}
	if len(res.Quarantines) < 2 {
		t.Fatalf("quarantines = %d, want one per round the hostile client reached: %+v",
			len(res.Quarantines), res.Quarantines)
	}
	for _, q := range res.Quarantines {
		if q.ClientID != 3 {
			t.Errorf("quarantined honest client %d: %s", q.ClientID, q.Reason)
		}
		if !strings.Contains(q.Reason, "out of range") {
			t.Errorf("quarantine reason %q does not name the bad index", q.Reason)
		}
	}
	if res.Evictions < len(res.Quarantines)+1 {
		t.Errorf("evictions = %d, want >= %d (quarantines + cut straggler)",
			res.Evictions, len(res.Quarantines)+1)
	}
	if res.FinalAcc < 0.3 {
		t.Fatalf("chaos session did not learn: acc %.3f", res.FinalAcc)
	}

	var snap sessionSnapshot
	if latest, err := checkpoint.ReadSnapshot(ckptDir); err != nil {
		t.Fatalf("loading session checkpoint: %v", err)
	} else if err := latest.Restore(&snap); err != nil {
		t.Fatalf("decoding session checkpoint: %v", err)
	}
	if snap.CompletedRound != rounds-1 {
		t.Fatalf("checkpoint at round %d, want %d", snap.CompletedRound, rounds-1)
	}
}

// parentTreeState and parentPartial are the shard section of the sync
// snapshot as it was written while the server checkpointed the tree's
// state: the shard count, the dimension and one partial per shard, all
// zeros at the round boundary where snapshots are cut. gob skips a field
// sessionSnapshot lacks whatever the field is named, so the fixture's
// name for the section (Tree) stands in for the one those chains used.
type parentTreeState struct {
	Shards   int
	Dim      int
	Partials []parentPartial
}

type parentPartial struct {
	Sum       []float64
	WeightSum float64
	Count     int
	CtrlSum   []float64
	CtrlCount int
	Norms     []float64
}

type parentSessionSnapshot struct {
	CompletedRound int
	NumClients     int
	Rounds         int
	History        []RoundRecord
	Tree           *parentTreeState
}

func (m *parentSessionSnapshot) Round() int { return m.CompletedRound }

// TestResumeChainWithShardPartials: a chain whose snapshot still carries
// a shard count, the dimension and S zero partials (written while the
// server checkpointed the tree) decodes into today's sessionSnapshot and
// resumes.
func TestResumeChainWithShardPartials(t *testing.T) {
	const rounds, shards = 3, 3
	env := newChaosEnv(2, 120, 12, 16, 89)
	dim := env.newModel().NumParams()
	vectors := func() []checkpoint.Vector {
		return []checkpoint.Vector{{Name: "global", Vals: make([]float64, dim)}, {Name: "gdelta", Vals: make([]float64, dim)}}
	}
	partials := make([]parentPartial, shards)
	for i := range partials {
		partials[i].Sum = make([]float64, dim)
	}
	history := make([]RoundRecord, rounds)
	for i := range history {
		history[i].Round = i
	}
	dir := t.TempDir()
	w, _, err := checkpoint.Open(dir, false, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	w.Snapshot(&parentSessionSnapshot{CompletedRound: rounds - 1, NumClients: env.clients, Rounds: rounds,
		History: history, Tree: &parentTreeState{Shards: shards, Dim: dim, Partials: partials}}, vectors()...)
	if res, _ := w.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}

	var meta sessionSnapshot
	if snap, err := checkpoint.ReadSnapshot(dir); err != nil {
		t.Fatal(err)
	} else if err := snap.Restore(&meta, vectors()...); err != nil {
		t.Fatalf("decoding a snapshot with shard partials: %v", err)
	}
	if len(meta.History) != rounds {
		t.Fatalf("decoded %d rounds of history, want %d", len(meta.History), rounds)
	}

	scfg := env.serverConfig(rounds)
	scfg.CheckpointDir, scfg.Resume = dir, true
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run()
	if err != nil {
		t.Fatalf("resume of a chain with shard partials: %v", err)
	}
	if res.ResumedFrom != rounds || len(res.Rounds) != rounds {
		t.Fatalf("resumed at round %d with %d rounds of history, want %d and %d",
			res.ResumedFrom, len(res.Rounds), rounds, rounds)
	}
}

// TestShardedObservabilityEndToEnd extends the observability acceptance
// scenario to the aggregation tree: the shard-labelled instrument families
// (fold latency, received/evicted totals, merge latency) must appear in
// the /metrics exposition and agree with the session result. The server
// folds through one shard.
func TestShardedObservabilityEndToEnd(t *testing.T) {
	const rounds, shards = 4, 1
	env := newChaosEnv(3, 400, 12, 16, 93)

	reg := obs.NewRegistry()
	dbg, err := obs.NewDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	scfg := env.serverConfig(rounds)
	scfg.Metrics = reg
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ClientConfig, env.clients)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, srv.Addr())
	}
	clientsDone := make(chan struct{})
	go func() { runClients(cfgs); close(clientsDone) }()
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	<-clientsDone
	if len(res.Rounds) != rounds {
		t.Fatalf("session ran %d of %d rounds", len(res.Rounds), rounds)
	}

	resp, err := http.Get("http://" + dbg.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, string(body))

	folded := 0
	for _, rec := range res.Rounds {
		folded += rec.Received
	}
	ingested := folded + len(res.Quarantines)

	recvTotal, foldCount, evictedTotal := 0.0, 0.0, 0.0
	for i := 0; i < shards; i++ {
		recv, ok := samples[fmt.Sprintf(`adafl_shard_received_total{shard="%d"}`, i)]
		if !ok {
			t.Errorf("shard %d: received_total series missing", i)
		}
		recvTotal += recv
		fc, ok := samples[fmt.Sprintf(`adafl_shard_fold_seconds_count{shard="%d"}`, i)]
		if !ok {
			t.Errorf("shard %d: fold_seconds histogram missing", i)
		}
		foldCount += fc
		evictedTotal += samples[fmt.Sprintf(`adafl_shard_evicted_total{shard="%d"}`, i)]
	}
	if recvTotal != float64(ingested) {
		t.Errorf("shard received_total sums to %v, want %d ingested updates", recvTotal, ingested)
	}
	if foldCount != float64(folded) {
		t.Errorf("fold latency observations %v, want %d folds", foldCount, folded)
	}
	if evictedTotal != float64(len(res.Quarantines)) {
		t.Errorf("shard evicted_total %v, want %d quarantines", evictedTotal, len(res.Quarantines))
	}
	if got := samples["adafl_shard_merge_seconds_count"]; got != float64(rounds) {
		t.Errorf("merge latency observations %v, want %d rounds", got, rounds)
	}
	// The round-engine families from the unsharded path still report.
	if got := samples["adafl_rounds_total"]; got != float64(rounds) {
		t.Errorf("adafl_rounds_total = %v, want %d", got, rounds)
	}
	if got := samples["adafl_quarantines_total"]; got != float64(len(res.Quarantines)) {
		t.Errorf("adafl_quarantines_total = %v, want %d", got, len(res.Quarantines))
	}
}
