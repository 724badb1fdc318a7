package rpc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"adafl/internal/compress"
)

// --- end to end: a hostile client against a live server ----------------

// evilResult records what a protocol-conformant but hostile client saw.
type evilResult struct {
	broadcasts [][]float64 // Params of every MsgModel received
	redials    int
	err        error
}

// runEvilClient speaks the wire protocol honestly except for its
// updates, which come from mkUpd. It redials (bounded) when the server
// cuts it off, so a quarantined-then-evicted client can rejoin and the
// test can observe consecutive round broadcasts.
func runEvilClient(addr string, id, samples, maxRedials int,
	mkUpd func(round, dim int) *compress.Sparse) *evilResult {
	res := &evilResult{}
	for attempt := 0; ; attempt++ {
		conn, err := Dial("tcp", addr, 5*time.Second)
		if err != nil {
			if attempt >= maxRedials {
				res.err = err
				return res
			}
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if attempt > 0 {
			res.redials++
		}
		done := func() bool {
			defer conn.Close()
			if err := conn.Send(&Envelope{Type: MsgHello, ClientID: id, NumSamples: samples}); err != nil {
				return false
			}
			for {
				e, err := conn.Recv()
				if err != nil {
					return false
				}
				switch e.Type {
				case MsgShutdown:
					return true
				case MsgWelcome:
					// fine; keep listening
				case MsgModel:
					res.broadcasts = append(res.broadcasts, sentForm(e).Params)
					if err := conn.Send(&Envelope{Type: MsgScore, ClientID: id, Round: e.Round, Score: 1}); err != nil {
						return false
					}
					sel, err := conn.Recv()
					if err == nil && sel.Type == MsgWelcome { // overtaken by the first broadcast
						sel, err = conn.Recv()
					}
					if err != nil || sel.Type != MsgSelect {
						return false
					}
					if sel.Ratio <= 0 {
						continue
					}
					upd := mkUpd(e.Round, len(e.Params32))
					if err := conn.Send(&Envelope{Type: MsgUpdate, ClientID: id, Round: e.Round, Update: upd}); err != nil {
						return false
					}
				default:
					return false
				}
			}
		}()
		if done {
			return res
		}
		if attempt >= maxRedials {
			return res
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestQuarantineMalformedUpdateBitwiseE2E is the acceptance scenario on
// a real socket: the only client in the session ships an update with
// out-of-range indices every round. The server must quarantine it
// (evict + record the reason), keep the session alive through
// re-admission, and broadcast a bit-for-bit unchanged global model the
// next round — proof the poisoned update never touched it.
func TestQuarantineMalformedUpdateBitwiseE2E(t *testing.T) {
	env := newChaosEnv(1, 160, 12, 16, 81)
	scfg := env.serverConfig(2)
	var srv *Server
	scfg.OnRound = func(rec RoundRecord) {
		if rec.Round == 0 {
			waitForClient(t, srv, 0, 10*time.Second)
		}
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	outCh := make(chan *evilResult, 1)
	go func() {
		outCh <- runEvilClient(srv.Addr(), 0, env.parts[0].Len(), 50,
			func(round, dim int) *compress.Sparse {
				return &compress.Sparse{Dim: dim,
					Indices: []int32{0, int32(dim + 7)}, Values: []float64{5, 1e6}}
			})
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatalf("server aborted: %v", err)
	}
	evil := <-outCh

	if len(res.Rounds) != 2 {
		t.Fatalf("completed %d/2 rounds", len(res.Rounds))
	}
	if len(res.Quarantines) != 2 {
		t.Fatalf("quarantines = %d, want one per round: %+v", len(res.Quarantines), res.Quarantines)
	}
	for i, q := range res.Quarantines {
		if q.ClientID != 0 || q.Round != i {
			t.Errorf("quarantine %d: client %d round %d", i, q.ClientID, q.Round)
		}
		if !strings.Contains(q.Reason, "out of range") {
			t.Errorf("quarantine reason %q does not name the bad index", q.Reason)
		}
	}
	for _, rec := range res.Rounds {
		if rec.Quarantined != 1 || rec.Received != 0 {
			t.Errorf("round %d: quarantined %d received %d, want 1/0", rec.Round, rec.Quarantined, rec.Received)
		}
	}
	if res.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2 (one per quarantined round)", res.Evictions)
	}
	// The heart of the test: the round-1 broadcast is bitwise the
	// round-0 broadcast, because the only update ever received was
	// quarantined before aggregation.
	if len(evil.broadcasts) < 2 {
		t.Fatalf("evil client saw %d broadcasts, want 2 (did re-admission fail?)", len(evil.broadcasts))
	}
	p0, p1 := evil.broadcasts[0], evil.broadcasts[1]
	if len(p0) != len(p1) {
		t.Fatalf("broadcast lengths differ: %d vs %d", len(p0), len(p1))
	}
	for i := range p0 {
		if p0[i] != p1[i] {
			t.Fatalf("global model changed at coordinate %d (%v -> %v) despite quarantine", i, p0[i], p1[i])
		}
	}
	if evil.redials == 0 {
		t.Error("evicted client never redialled")
	}
}

// TestQuarantineNormOutlierE2E: three honest clients plus one shipping
// structurally valid updates of absurd norm (each product still inside the
// fold window, so the norm gate is what judges them). The norm gate must
// quarantine the outlier against the round-median norm while the honest
// majority trains on undisturbed.
func TestQuarantineNormOutlierE2E(t *testing.T) {
	env := newChaosEnv(4, 480, 12, 16, 91)
	const rounds = 4
	scfg := env.serverConfig(rounds)
	scfg.MaxUpdateNorm = 5
	var srv *Server
	scfg.OnRound = func(rec RoundRecord) {
		// Hold each boundary until the (repeatedly evicted) outlier has
		// redialled, so it is present — and screened — every round.
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
	honestCh := make(chan []error, 1)
	go func() {
		_, errs := runClients(cfgs)
		honestCh <- errs
	}()
	evilCh := make(chan *evilResult, 1)
	go func() {
		evilCh <- runEvilClient(srv.Addr(), 3, 120, 100,
			func(round, dim int) *compress.Sparse {
				vals := make([]float64, 8)
				idx := make([]int32, 8)
				for i := range vals {
					idx[i] = int32(i)
					vals[i] = 50
				}
				return &compress.Sparse{Dim: dim, Indices: idx, Values: vals}
			})
	}()
	res, err := srv.Run()
	if err != nil {
		t.Fatalf("server aborted: %v", err)
	}
	<-evilCh
	for i, cerr := range <-honestCh {
		if cerr != nil {
			t.Errorf("honest client %d: %v", i, cerr)
		}
	}
	if len(res.Rounds) != rounds {
		t.Fatalf("completed %d/%d rounds", len(res.Rounds), rounds)
	}
	if len(res.Quarantines) == 0 {
		t.Fatal("norm outlier never quarantined")
	}
	for _, q := range res.Quarantines {
		if q.ClientID != 3 {
			t.Errorf("quarantined honest client %d: %s", q.ClientID, q.Reason)
		}
		if !strings.Contains(q.Reason, "round median") {
			t.Errorf("quarantine reason %q does not cite the median gate", q.Reason)
		}
		if q.Norm == 0 {
			t.Error("outlier record missing its norm")
		}
	}
	// Honest training was not collateral damage.
	if res.FinalAcc < 0.3 {
		t.Fatalf("session with gated outlier failed to learn: acc %.3f", res.FinalAcc)
	}
}

// TestQuarantineFiniteGiantsE2E: of four scripted clients, two ship finite
// updates carrying 1e308 every round. Nothing else judges them — the norm
// gate is off, or at ×10 it needs a median the two giants dominate — and
// summed they used to make the global +Inf. The fold window quarantines
// both by name, and every broadcast is bitwise what it is when their
// updates never arrive.
func TestQuarantineFiniteGiantsE2E(t *testing.T) {
	const rounds = 3
	giants := []int{0, 1}
	run := func(gate float64, attack bool) ([][]float64, *ServerResult) {
		env := newChaosEnv(4, 480, 12, 16, 71)
		env.cfg.K = 4 // everyone is asked for an update every round
		scfg := env.serverConfig(rounds)
		scfg.MaxUpdateNorm = gate
		var srv *Server
		scfg.OnRound = func(RoundRecord) {
			for _, id := range giants {
				waitForClient(t, srv, id, 10*time.Second)
			}
		}
		srv, err := NewServer(scfg)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *evilResult, 4)
		for id := 0; id < 4; id++ {
			go func() {
				done <- runEvilClient(srv.Addr(), id, 120, 100, func(round, dim int) *compress.Sparse {
					u := scriptedUpdate(id, round, dim)
					if id > 1 {
						return u
					}
					if !attack {
						return nil // never arrives: evicted like a dead link
					}
					u.Values[3] = 1e308
					return u
				})
			}()
		}
		res, err := srv.Run()
		if err != nil {
			t.Fatalf("gate %v attack=%v: %v", gate, attack, err)
		}
		var observed [][]float64
		for i := 0; i < 4; i++ {
			if r := <-done; len(r.broadcasts) >= rounds && r.redials == 0 {
				observed = r.broadcasts // an honest client: it saw every round
			}
		}
		if len(res.Rounds) != rounds {
			t.Fatalf("gate %v attack=%v: completed %d/%d rounds", gate, attack, len(res.Rounds), rounds)
		}
		return observed, res
	}
	for _, gate := range []float64{0, 10} {
		clean, _ := run(gate, false)
		attacked, res := run(gate, true)
		if len(res.Quarantines) != 2*rounds {
			t.Errorf("gate %v: %d quarantines, want both giants every round", gate, len(res.Quarantines))
		}
		for _, q := range res.Quarantines {
			if q.ClientID > 1 || !strings.Contains(q.Reason, "outside the fold window") {
				t.Errorf("gate %v: quarantined client %d: %s", gate, q.ClientID, q.Reason)
			}
		}
		sameBroadcasts(t, fmt.Sprintf("gate %v: giants vs giants silent", gate), attacked, clean, rounds)
	}
}
