package rpc

import (
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"adafl/internal/obs"
)

// parseExposition validates every line of a Prometheus text exposition
// and returns sample name → value. Histogram series keep their label
// block (e.g. `adafl_round_seconds_bucket{le="+Inf"}`) as part of the key.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram") {
				t.Errorf("bad TYPE line %q", line)
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Errorf("sample line without value: %q", line)
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
			continue
		}
		samples[line[:i]] = v
	}
	return samples
}

// TestObservabilityEndToEnd is the acceptance scenario for the
// observability layer: a chaos-style session with metrics and the event
// log enabled — including one client killed mid-session for a real
// eviction — must expose a parseable /metrics endpoint whose counters
// agree with the session result, and a JSONL event log whose per-round
// records match the server's RoundRecord history.
func TestObservabilityEndToEnd(t *testing.T) {
	const rounds = 6
	env := newChaosEnv(3, 400, 12, 16, 21)

	reg := obs.NewRegistry()
	logPath := filepath.Join(t.TempDir(), "events.jsonl")
	events, err := obs.OpenEventLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := obs.NewDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	scfg := env.serverConfig(rounds)
	scfg.Metrics = reg
	scfg.Events = events
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}

	cfgs := make([]ClientConfig, env.clients)
	for i := range cfgs {
		cfgs[i] = env.clientConfig(i, srv.Addr())
		cfgs[i].Metrics = reg // shared registry: client metrics ride along
	}
	// Client 2's link dies permanently once it has sent a few KB —
	// enough for registration and an early upload, then a hard cut.
	cfgs[2].Fault = &FaultConfig{CutAfterBytes: 4000}
	cfgs[2].MaxRetries = 0

	clientsDone := make(chan struct{})
	go func() { runClients(cfgs); close(clientsDone) }()
	res, err := srv.Run()
	if err != nil {
		t.Fatal(err)
	}
	<-clientsDone
	if err := events.Close(); err != nil {
		t.Fatalf("event log close: %v", err)
	}
	if len(res.Rounds) != rounds {
		t.Fatalf("session ran %d of %d rounds", len(res.Rounds), rounds)
	}
	if res.Evictions == 0 {
		t.Fatal("cut client was never evicted; scenario lost its fault")
	}

	// --- /metrics over real HTTP ---
	resp, err := http.Get("http://" + dbg.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type %q", ct)
	}
	samples := parseExposition(t, string(body))

	if got := samples["adafl_rounds_total"]; got != float64(len(res.Rounds)) {
		t.Errorf("adafl_rounds_total = %v, want %d", got, len(res.Rounds))
	}
	if got := samples["adafl_evictions_total"]; got != float64(res.Evictions) {
		t.Errorf("adafl_evictions_total = %v, want %d", got, res.Evictions)
	}
	if got := samples["adafl_quarantines_total"]; got != float64(len(res.Quarantines)) {
		t.Errorf("adafl_quarantines_total = %v, want %d", got, len(res.Quarantines))
	}
	if got := samples[`adafl_bytes_total{dir="up"}`]; got != float64(res.BytesReceived) {
		t.Errorf(`adafl_bytes_total{dir="up"} = %v, want %d`, got, res.BytesReceived)
	}
	if samples[`adafl_bytes_total{dir="down"}`] <= 0 {
		t.Error("no downlink bytes recorded")
	}
	if samples["adafl_registrations_total"] < float64(env.clients) {
		t.Errorf("registrations = %v, want ≥ %d", samples["adafl_registrations_total"], env.clients)
	}
	if samples["adafl_round_seconds_count"] != float64(rounds) {
		t.Errorf("round latency histogram count = %v, want %d", samples["adafl_round_seconds_count"], rounds)
	}
	if samples["adafl_utility_score_count"] <= 0 {
		t.Error("utility-score histogram is empty")
	}
	if samples["adafl_compression_ratio_count"] <= 0 {
		t.Error("compression-ratio histogram is empty")
	}
	if samples["adafl_client_redials_total"] != 0 && samples["adafl_client_bytes_sent_total"] <= 0 {
		t.Error("client metrics inconsistent")
	}
	if got := samples["adafl_connections"]; got != 0 {
		t.Errorf("adafl_connections = %v after shutdown, want 0", got)
	}
	if samples[`adafl_wire_messages_total{codec="binary"}`] <= 0 {
		t.Error("no received messages counted")
	}
	if !math.IsNaN(res.FinalAcc) {
		if got := samples["adafl_round_accuracy"]; math.Abs(got-res.FinalAcc) > 1e-9 {
			t.Errorf("adafl_round_accuracy = %v, want %v", got, res.FinalAcc)
		}
	}

	// --- /healthz ---
	hres, err := http.Get("http://" + dbg.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", hres.StatusCode)
	}

	// --- JSONL event log vs RoundRecord history ---
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	byType := map[string][]obs.Event{}
	for _, ev := range evs {
		byType[ev.Type] = append(byType[ev.Type], ev)
	}
	if len(byType["selection"]) != rounds || len(byType["aggregate"]) != rounds {
		t.Errorf("selection/aggregate events: %d/%d, want %d each",
			len(byType["selection"]), len(byType["aggregate"]), rounds)
	}
	if len(byType["evict"]) != res.Evictions {
		t.Errorf("evict events: %d, want %d", len(byType["evict"]), res.Evictions)
	}
	roundEvents := byType["round"]
	if len(roundEvents) != len(res.Rounds) {
		t.Fatalf("round events: %d, want %d", len(roundEvents), len(res.Rounds))
	}
	totalUpdates := 0
	for i, rec := range res.Rounds {
		ev := roundEvents[i]
		if ev.Round != rec.Round || ev.Clients != rec.Clients || ev.Selected != rec.Selected ||
			ev.Received != rec.Received || ev.Evicted != rec.Evicted ||
			ev.Quarantined != rec.Quarantined || ev.Bytes != rec.Bytes {
			t.Errorf("round %d: event %+v does not match record %+v", rec.Round, ev, rec)
		}
		switch {
		case math.IsNaN(rec.TestAcc):
			if ev.Acc != nil {
				t.Errorf("round %d: acc %v for a NaN record", rec.Round, *ev.Acc)
			}
		case ev.Acc == nil:
			t.Errorf("round %d: missing acc (record has %v)", rec.Round, rec.TestAcc)
		case *ev.Acc != rec.TestAcc:
			t.Errorf("round %d: acc %v, want %v", rec.Round, *ev.Acc, rec.TestAcc)
		}
		if ev.TS == "" {
			t.Errorf("round %d: event missing timestamp", rec.Round)
		}
		totalUpdates += rec.Received
	}
	if len(byType["update"]) < totalUpdates {
		t.Errorf("update events: %d, want ≥ %d aggregated updates", len(byType["update"]), totalUpdates)
	}
	for _, sel := range byType["selection"] {
		if len(sel.Ratios) == 0 {
			t.Errorf("round %d: selection event without ratio assignments", sel.Round)
		}
	}
}
