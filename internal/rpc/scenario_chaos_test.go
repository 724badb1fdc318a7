package rpc

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"adafl/internal/fl"
	"adafl/internal/netsim"
	"adafl/internal/scenario"
	"adafl/internal/stats"
)

// scenarioFleet loads the bundled diurnal scenario and instantiates it
// over the chaos fleet, with the energy model calibrated to the env's
// local training workload.
func scenarioFleet(t *testing.T, env *chaosEnv) *scenario.Fleet {
	t.Helper()
	sc, err := scenario.Load("../../examples/scenarios/diurnal.json")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := scenario.NewFleet(sc, env.clients)
	if err != nil {
		t.Fatal(err)
	}
	fleet.SetRoundWork(env.newModel().FLOPsPerSample(), 3*16) // LocalSteps×BatchSize
	return fleet
}

// lastLines returns the trailing n lines of a JSONL buffer.
func lastLines(buf []byte, n int) []byte {
	lines := bytes.SplitAfter(buf, []byte("\n"))
	// SplitAfter leaves a trailing empty element after the final newline.
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return bytes.Join(lines, nil)
}

// TestChaosScenarioDiurnalResume is the scenario-engine acceptance run:
// the bundled diurnal scenario (battery depletions around round 2, a
// recharge-driven rejoin, and a correlated "east" regional outage
// starting mid-round) drives a live server session to completion, and a
// kill-and-resume restart mid-scenario must produce the identical
// post-resume availability schedule as an uninterrupted run — byte for
// byte on the scenario round log, which is the schedule's observable.
func TestChaosScenarioDiurnalResume(t *testing.T) {
	const (
		rounds    = 10
		killAfter = 4
	)
	env := newChaosEnv(4, 600, 16, 32, 81)

	// Uninterrupted reference run under the scenario.
	refCfg := env.serverConfig(rounds)
	refCfg.StragglerTimeout = 10 * time.Second
	refCfg.Scenario = scenarioFleet(t, env)
	var refLog bytes.Buffer
	refCfg.ScenarioLog = &refLog
	refSrv, err := NewServer(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	refCfgs := make([]ClientConfig, env.clients)
	for i := range refCfgs {
		refCfgs[i] = env.clientConfig(i, refSrv.Addr())
	}
	refDone := make(chan struct{})
	go func() { runClients(refCfgs); close(refDone) }()
	refRes, err := refSrv.Run()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	<-refDone
	if len(refRes.Rounds) != rounds {
		t.Fatalf("reference run completed %d/%d rounds", len(refRes.Rounds), rounds)
	}

	// The scenario must actually bite: depletions, a reduced-availability
	// round, and the east outage all appear in the schedule log.
	if !bytes.Contains(refLog.Bytes(), []byte(`"depleted"`)) {
		t.Fatalf("no battery depletion in scenario log:\n%s", refLog.String())
	}
	if !bytes.Contains(refLog.Bytes(), []byte(`"offline"`)) {
		t.Fatalf("no client ever offline in scenario log:\n%s", refLog.String())
	}
	if !bytes.Contains(refLog.Bytes(), []byte(`"outages":["east"]`)) {
		t.Fatalf("east regional outage missing from scenario log:\n%s", refLog.String())
	}

	// Killed run: same scenario from scratch, checkpointing every round,
	// crash after killAfter rounds.
	dir := t.TempDir()
	scfg1 := env.serverConfig(rounds)
	scfg1.StragglerTimeout = 10 * time.Second
	scfg1.CheckpointDir = dir
	scfg1.Scenario = scenarioFleet(t, env)
	var killedLog bytes.Buffer
	scfg1.ScenarioLog = &killedLog
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
	type clientOut struct {
		res  []*ClientResult
		errs []error
	}
	outCh := make(chan clientOut, 1)
	go func() {
		r, e := runClients(cfgs)
		outCh <- clientOut{r, e}
	}()

	if _, err = srv1.Run(); !errors.Is(err, ErrServerKilled) {
		t.Fatalf("killed server returned %v, want ErrServerKilled", err)
	}

	// Restarted process: a fresh fleet built from the same scenario file
	// whose state must come from the checkpoint, not from round 0.
	scfg2 := env.serverConfig(rounds)
	scfg2.StragglerTimeout = 10 * time.Second
	scfg2.Addr = addr
	scfg2.CheckpointDir = dir
	scfg2.Resume = true
	scfg2.Scenario = scenarioFleet(t, env)
	var resumedLog bytes.Buffer
	scfg2.ScenarioLog = &resumedLog
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
	out := <-outCh

	if res2.ResumedFrom != killAfter {
		t.Fatalf("ResumedFrom = %d, want %d", res2.ResumedFrom, killAfter)
	}
	if len(res2.Rounds) != rounds {
		t.Fatalf("resumed session ended with %d/%d rounds", len(res2.Rounds), rounds)
	}
	for i, rec := range res2.Rounds {
		if rec.Round != i {
			t.Fatalf("round history gap at index %d: record says round %d", i, rec.Round)
		}
	}
	for i, cerr := range out.errs {
		if cerr != nil {
			t.Errorf("client %d: %v", i, cerr)
		}
	}

	// The golden replay pin: the resumed process's schedule for rounds
	// killAfter..rounds-1 must be byte-identical to the same rounds of
	// the uninterrupted run. Any drift in battery integration across the
	// crash gap, depletion latches or availability evaluation shows here.
	want := lastLines(refLog.Bytes(), rounds-killAfter)
	if got := resumedLog.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("post-resume schedule diverges from uninterrupted run:\nuninterrupted rounds %d..%d:\n%s\nresumed:\n%s",
			killAfter, rounds-1, want, got)
	}
	// And the pre-kill prefix matches too (same scenario from round 0).
	if got, wantPrefix := killedLog.Bytes(), refLog.Bytes()[:len(killedLog.Bytes())]; !bytes.Equal(got, wantPrefix) {
		t.Fatalf("pre-kill schedule diverges from uninterrupted run:\nuninterrupted prefix:\n%s\nkilled:\n%s",
			wantPrefix, got)
	}
}

// TestResumeScenarioMismatchIsFatal: resuming a checkpointed scenario
// session under a different scenario must be refused — splicing two
// schedules together would silently break the replay contract.
func TestResumeScenarioMismatchIsFatal(t *testing.T) {
	env := newChaosEnv(2, 160, 12, 16, 82)
	const rounds = 2
	dir := t.TempDir()

	scfg := env.serverConfig(rounds)
	scfg.CheckpointDir = dir
	scfg.Scenario = scenarioFleet(t, env)
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

	other, err := scenario.Load("../../examples/scenarios/regional-outage.json")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := scenario.NewFleet(other, env.clients)
	if err != nil {
		t.Fatal(err)
	}
	scfg2 := env.serverConfig(rounds + 2)
	scfg2.CheckpointDir = dir
	scfg2.Resume = true
	scfg2.Scenario = fleet
	srv2, err := NewServer(scfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Run(); err == nil {
		t.Fatal("resume under a different scenario accepted")
	}
}

// TestWireLinkRatesMatchSimulator: one scenario file moves the links of
// both engines. A wire session on diurnal.json, every client paced on the
// LTE preset, runs each round at the (up, down) rates the simulator's
// links carry after ApplyRoundLinks over the same file — bit for bit. The
// wire side reads the rates its sockets are paced at; the simulator reads
// netsim.Network.Link.
func TestWireLinkRatesMatchSimulator(t *testing.T) {
	const rounds = 6
	env := newChaosEnv(4, 320, 12, 16, 91)
	link := netsim.LTELink

	type rates struct{ up, down float64 }
	simFleet := scenarioFleet(t, env)
	fed := fl.NewFederation(env.parts, env.test, netsim.UniformNetwork(env.clients, link, 3), env.newModel,
		fl.TrainConfig{LocalSteps: 1, BatchSize: 8, LR: 0.1}, 5)
	simFleet.ConfigureFederation(fed)
	planner := &scenario.Planner{Fleet: simFleet, Inner: fl.NewFixedRatePlanner(1, 1, 7)}
	engine := fl.NewSyncEngine(fed, fl.FedAvg{}, planner, 6)
	sim := make([][]rates, rounds)
	for r := range sim {
		planner.Plan(r, engine)
		for i := 0; i < env.clients; i++ {
			l := fed.Net.Link(i)
			sim[r] = append(sim[r], rates{l.UpBps, l.DownBps})
		}
	}

	// Each client evaluates the file on its link's base rates, as
	// flclient -link -scenario does.
	clientFleet := scenarioFleet(t, env)
	sessions := make([]*clientSession, env.clients)
	var wire [][]rates
	scfg := env.serverConfig(rounds)
	scfg.StragglerTimeout = 10 * time.Second
	scfg.Scenario = scenarioFleet(t, env)
	scfg.OnRound = func(RoundRecord) {
		row := make([]rates, len(sessions))
		for i, s := range sessions {
			l := s.link.get()
			row[i] = rates{l.UpBps, l.DownBps}
		}
		wire = append(wire, row)
	}
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sessions {
		cfg := env.clientConfig(i, srv.Addr())
		cfg.Fault = &FaultConfig{Link: &link}
		id := i
		cfg.Bandwidth = func(round int) (float64, float64) {
			return clientFleet.LinkBandwidth(id, round, link.UpBps, link.DownBps)
		}
		if sessions[i], err = newClientSession(cfg); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, len(sessions))
	for _, s := range sessions {
		go func() {
			errs <- Redial(0, 0, stats.NewRNG(1), s.runOnce, nil)
		}()
	}
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	for range sessions {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if res.Evictions != 0 || len(wire) != rounds {
		t.Fatalf("%d evictions, %d/%d rounds", res.Evictions, len(wire), rounds)
	}
	moved := false
	for r := range wire {
		for i := range wire[r] {
			if wire[r][i] != sim[r][i] {
				t.Errorf("round %d client %d: wire paces %+v, simulator links %+v", r, i, wire[r][i], sim[r][i])
			}
			moved = moved || wire[r][i] != wire[0][i]
		}
	}
	if !moved {
		t.Error("the scenario never moved a link: nothing was compared")
	}
}
