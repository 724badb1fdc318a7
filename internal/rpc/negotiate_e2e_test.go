package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"adafl/internal/core"
	"adafl/internal/scenario"
)

// negotiatedServerConfig specialises the chaos env for a negotiated
// session: diurnal scenario, negotiation enabled with the defaults, and
// the round's assignments logged to buf.
func negotiatedServerConfig(t *testing.T, env *chaosEnv, rounds int, scenarioLog, assignLog *bytes.Buffer) ServerConfig {
	t.Helper()
	cfg := env.serverConfig(rounds)
	cfg.StragglerTimeout = 10 * time.Second
	cfg.Scenario = scenarioFleet(t, env)
	cfg.ScenarioLog = scenarioLog
	cfg.Negotiation = core.DefaultNegotiation()
	cfg.Negotiation.Enabled = true
	cfg.AssignLog = assignLog
	return cfg
}

// assignTail filters a JSONL assignment log to the records of rounds
// >= from, preserving order — the resume tests compare a resumed
// process's log against this slice of the uninterrupted run's.
func assignTail(t *testing.T, buf []byte, from int) []byte {
	t.Helper()
	var out []byte
	for _, line := range bytes.SplitAfter(buf, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var round int
		if _, err := fmt.Sscanf(string(line), `{"round":%d,`, &round); err != nil {
			t.Fatalf("unparseable assignment record %q: %v", line, err)
		}
		if round >= from {
			out = append(out, line...)
		}
	}
	return out
}

// TestChaosNegotiatedGoldenReplay is the negotiation determinism
// acceptance test: two fresh live-socket sessions under the diurnal
// scenario with per-round codec negotiation enabled, same seeds, must
// produce byte-identical assignment logs and bit-identical global models
// (observed through the per-round test accuracy, an exact function of
// the global parameter vector). Any wall-clock or receipt-order leak
// into the negotiator — or into aggregation — shows up here.
func TestChaosNegotiatedGoldenReplay(t *testing.T) {
	const rounds = 8
	run := func(seed uint64) (*ServerResult, []byte, []byte) {
		env := newChaosEnv(4, 600, 16, 32, seed)
		var scenLog, asnLog bytes.Buffer
		srv, err := NewServer(negotiatedServerConfig(t, env, rounds, &scenLog, &asnLog))
		if err != nil {
			t.Fatal(err)
		}
		cfgs := make([]ClientConfig, env.clients)
		for i := range cfgs {
			cfgs[i] = env.clientConfig(i, srv.Addr())
		}
		done := make(chan []error, 1)
		go func() {
			_, errs := runClients(cfgs)
			done <- errs
		}()
		res, err := srv.Run()
		if err != nil {
			t.Fatalf("negotiated run: %v", err)
		}
		for i, cerr := range <-done {
			if cerr != nil {
				t.Fatalf("client %d: %v", i, cerr)
			}
		}
		return res, asnLog.Bytes(), scenLog.Bytes()
	}

	resA, asnA, scenA := run(91)
	resB, asnB, scenB := run(91)

	if len(asnA) == 0 {
		t.Fatal("no assignments logged; negotiation never ran")
	}
	// Negotiation must actually exercise both codecs under the diurnal
	// bandwidth swings: shallow ratios stay on DGC, throttled links cross
	// SwitchRatio into DAdaQuant.
	if !bytes.Contains(asnA, []byte(`"codec":"dadaquant"`)) {
		t.Fatalf("no dadaquant assignment in log:\n%s", asnA)
	}
	if !bytes.Contains(asnA, []byte(`"codec":"dgc"`)) {
		t.Fatalf("no dgc assignment in log:\n%s", asnA)
	}
	if !bytes.Equal(asnA, asnB) {
		t.Fatalf("assignment logs diverge between identical runs:\nrun A:\n%s\nrun B:\n%s", asnA, asnB)
	}
	if !bytes.Equal(scenA, scenB) {
		t.Fatal("scenario schedules diverge between identical runs")
	}
	if len(resA.Rounds) != rounds || len(resB.Rounds) != rounds {
		t.Fatalf("incomplete sessions: %d and %d rounds", len(resA.Rounds), len(resB.Rounds))
	}
	for i := range resA.Rounds {
		a, b := resA.Rounds[i].TestAcc, resB.Rounds[i].TestAcc
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("round %d accuracy not bit-identical: %v vs %v", i, a, b)
		}
		if resA.Rounds[i].Bytes != resB.Rounds[i].Bytes {
			t.Fatalf("round %d uplink bytes diverge: %d vs %d", i, resA.Rounds[i].Bytes, resB.Rounds[i].Bytes)
		}
	}
	if resA.FinalAcc < 0.25 {
		t.Fatalf("negotiated session did not learn: acc %.3f", resA.FinalAcc)
	}
}

// TestChaosNegotiatedResume: killing a negotiated session mid-run and
// resuming from the checkpoint must replay the remaining rounds'
// assignments byte-identically to an uninterrupted run — the negotiator's
// link state (EWMA bytes, last assignments) travels in the snapshot.
func TestChaosNegotiatedResume(t *testing.T) {
	const (
		rounds    = 8
		killAfter = 3
	)

	// Uninterrupted reference.
	refEnv := newChaosEnv(4, 600, 16, 32, 92)
	var refScen, refAsn bytes.Buffer
	refSrv, err := NewServer(negotiatedServerConfig(t, refEnv, rounds, &refScen, &refAsn))
	if err != nil {
		t.Fatal(err)
	}
	refCfgs := make([]ClientConfig, refEnv.clients)
	for i := range refCfgs {
		refCfgs[i] = refEnv.clientConfig(i, refSrv.Addr())
	}
	refDone := make(chan struct{})
	go func() { runClients(refCfgs); close(refDone) }()
	refRes, err := refSrv.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	<-refDone
	if len(refRes.Rounds) != rounds {
		t.Fatalf("reference completed %d/%d rounds", len(refRes.Rounds), rounds)
	}

	// Killed run: same seeds, checkpointing every round, crash after
	// killAfter rounds.
	env := newChaosEnv(4, 600, 16, 32, 92)
	dir := t.TempDir()
	var killScen, killAsn bytes.Buffer
	scfg1 := negotiatedServerConfig(t, env, rounds, &killScen, &killAsn)
	scfg1.CheckpointDir = dir
	var srv1 *Server
	scfg1.OnRound = func(rec RoundRecord) {
		if rec.Round == killAfter-1 {
			srv1.Kill()
		}
	}
	srv1, err = NewServer(scfg1)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()

	cfgs := make([]ClientConfig, env.clients)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, addr)
		cfgs[i].MaxRetries = 100
		cfgs[i].RetryBackoff = 20 * time.Millisecond
	}
	clientErrs := make(chan []error, 1)
	go func() {
		_, errs := runClients(cfgs)
		clientErrs <- errs
	}()
	if _, err = srv1.Run(); !errors.Is(err, ErrServerKilled) {
		t.Fatalf("killed server returned %v, want ErrServerKilled", err)
	}

	// Restarted process resuming the negotiated session.
	var resScen, resAsn bytes.Buffer
	scfg2 := negotiatedServerConfig(t, env, rounds, &resScen, &resAsn)
	scfg2.Addr = addr
	scfg2.CheckpointDir = dir
	scfg2.Resume = true
	var srv2 *Server
	for attempt := 0; ; attempt++ {
		srv2, err = NewServer(scfg2)
		if err == nil {
			break
		}
		if attempt >= 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	res2, err := srv2.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	for i, cerr := range <-clientErrs {
		if cerr != nil {
			t.Errorf("client %d: %v", i, cerr)
		}
	}
	if res2.ResumedFrom != killAfter {
		t.Fatalf("ResumedFrom = %d, want %d", res2.ResumedFrom, killAfter)
	}
	if len(res2.Rounds) != rounds {
		t.Fatalf("resumed session ended with %d/%d rounds", len(res2.Rounds), rounds)
	}

	// Golden pins: the killed prefix and the resumed tail together must
	// reproduce the uninterrupted run's assignment stream byte for byte.
	if want := assignTail(t, refAsn.Bytes(), 0)[:len(killAsn.Bytes())]; !bytes.Equal(killAsn.Bytes(), want) {
		t.Fatalf("pre-kill assignments diverge from uninterrupted run:\nwant prefix:\n%s\ngot:\n%s", want, killAsn.Bytes())
	}
	want := assignTail(t, refAsn.Bytes(), killAfter)
	if got := resAsn.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("post-resume assignments diverge from uninterrupted run:\nuninterrupted rounds %d..%d:\n%s\nresumed:\n%s",
			killAfter, rounds-1, want, got)
	}
	if got, wantScen := resScen.Bytes(), lastLines(refScen.Bytes(), rounds-killAfter); !bytes.Equal(got, wantScen) {
		t.Fatalf("post-resume scenario schedule diverges:\nwant:\n%s\ngot:\n%s", wantScen, got)
	}
}

// TestResumeNegotiationMismatchIsFatal: the assignment stream is a pure
// function of (config, history), so resuming a checkpoint across a
// negotiation-config boundary — on, off, or different knobs — must be
// refused rather than silently diverging from the original session.
func TestResumeNegotiationMismatchIsFatal(t *testing.T) {
	runSession := func(t *testing.T, env *chaosEnv, scfg ServerConfig) {
		t.Helper()
		srv, err := NewServer(scfg)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := make([]ClientConfig, env.clients)
		for i := range cfgs {
			cfgs[i] = env.clientConfig(i, srv.Addr())
		}
		done := make(chan struct{})
		go func() { runClients(cfgs); close(done) }()
		if _, err := srv.Run(); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	resume := func(t *testing.T, scfg ServerConfig, dir string) error {
		t.Helper()
		scfg.CheckpointDir = dir
		scfg.Resume = true
		srv, err := NewServer(scfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = srv.Run()
		return err
	}

	t.Run("negotiated checkpoint, plain resume", func(t *testing.T) {
		env := newChaosEnv(2, 160, 12, 16, 93)
		dir := t.TempDir()
		scfg := env.serverConfig(2)
		scfg.CheckpointDir = dir
		scfg.Negotiation = core.DefaultNegotiation()
		scfg.Negotiation.Enabled = true
		runSession(t, env, scfg)
		if err := resume(t, env.serverConfig(4), dir); err == nil {
			t.Fatal("negotiated checkpoint resumed without negotiation")
		}
	})
	t.Run("plain checkpoint, negotiated resume", func(t *testing.T) {
		env := newChaosEnv(2, 160, 12, 16, 94)
		dir := t.TempDir()
		scfg := env.serverConfig(2)
		scfg.CheckpointDir = dir
		runSession(t, env, scfg)
		scfg2 := env.serverConfig(4)
		scfg2.Negotiation = core.DefaultNegotiation()
		scfg2.Negotiation.Enabled = true
		if err := resume(t, scfg2, dir); err == nil {
			t.Fatal("plain checkpoint resumed with negotiation enabled")
		}
	})
	t.Run("different negotiation knobs", func(t *testing.T) {
		env := newChaosEnv(2, 160, 12, 16, 95)
		dir := t.TempDir()
		scfg := env.serverConfig(2)
		scfg.CheckpointDir = dir
		scfg.Negotiation = core.DefaultNegotiation()
		scfg.Negotiation.Enabled = true
		runSession(t, env, scfg)
		scfg2 := env.serverConfig(4)
		scfg2.Negotiation = core.DefaultNegotiation()
		scfg2.Negotiation.Enabled = true
		scfg2.Negotiation.SwitchRatio = 99
		if err := resume(t, scfg2, dir); err == nil {
			t.Fatal("checkpoint resumed under different negotiation knobs")
		}
	})
}

// TestNegotiatorSeesTheTraceNotTheClass: the wire's negotiator divides
// by the scenario's shared trace alone (scenario.Fleet.TraceMult), the
// simulator's rule, because a class's static bandwidth already reaches
// selection through the score. Under two classes at bandwidth_mult 1 and
// 0.25 and no trace, both classes get the same round-0 ratio.
func TestNegotiatorSeesTheTraceNotTheClass(t *testing.T) {
	sc, err := scenario.Parse(strings.NewReader(`{"name": "two-class", "seed": 3, "round_seconds": 60,
		"classes": [{"name": "fast", "weight": 1}, {"name": "slow", "weight": 1, "bandwidth_mult": 0.25}]}`))
	if err != nil {
		t.Fatal(err)
	}
	env := newChaosEnv(6, 600, 16, 32, 5)
	fleet, err := scenario.NewFleet(sc, env.clients)
	if err != nil {
		t.Fatal(err)
	}
	var asnLog bytes.Buffer
	cfg := env.serverConfig(1)
	cfg.StragglerTimeout = 10 * time.Second
	cfg.Scenario = fleet
	cfg.Negotiation = core.DefaultNegotiation()
	cfg.Negotiation.Enabled = true
	cfg.AssignLog = &asnLog
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]ClientConfig, env.clients)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, srv.Addr())
	}
	done := make(chan []error, 1)
	go func() {
		_, errs := runClients(cfgs)
		done <- errs
	}()
	if _, err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	for i, cerr := range <-done {
		if cerr != nil {
			t.Fatalf("client %d: %v", i, cerr)
		}
	}

	var rec struct {
		Round  int
		Assign []struct {
			Client int
			Ratio  float64
		}
	}
	if err := json.Unmarshal(asnLog.Bytes(), &rec); err != nil || rec.Round != 0 {
		t.Fatalf("round-0 assignment record %q: %v", asnLog.String(), err)
	}
	ratios := map[string]float64{}
	for _, a := range rec.Assign {
		class := fleet.ClassName(a.Client)
		if r, ok := ratios[class]; ok && r != a.Ratio {
			t.Fatalf("class %s assigned ratios %v and %v", class, r, a.Ratio)
		}
		ratios[class] = a.Ratio
	}
	if len(ratios) != 2 || ratios["fast"] != ratios["slow"] {
		t.Fatalf("round-0 ratios by class %v, want one ratio for both classes\n%s", ratios, asnLog.String())
	}
}
