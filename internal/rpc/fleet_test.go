package rpc

import (
	"math"
	"path/filepath"
	"testing"

	"adafl/internal/compress"
)

// fleetCfg builds a fast unix-socket fleet configuration.
func fleetCfg(t *testing.T, clients, rounds int) FleetConfig {
	t.Helper()
	return FleetConfig{
		Network: "unix",
		Addr:    filepath.Join(t.TempDir(), "fleet.sock"),
		Clients: clients, Rounds: rounds,
		Dim: 2000, Nnz: 100,
		Seed: 11,
	}
}

// TestFleetBinarySockets is the harness smoke test at a few hundred real
// unix-socket clients: every update arrives, uplink accounting is exact
// to the byte, and the steady-state allocation rate stays low.
func TestFleetBinarySockets(t *testing.T) {
	const clients, rounds = 200, 3
	cfg := fleetCfg(t, clients, rounds)
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != clients*rounds {
		t.Fatalf("updates = %d, want %d", res.Updates, clients*rounds)
	}
	// Exact frame sizes: update = 4 prefix + 10 header + 9 sparse header
	// + 12 bytes per non-zero; hello = 4 + 10 + 4.
	updateFrame := int64(23 + 12*cfg.Nnz)
	wantUp := res.Updates*updateFrame + int64(clients)*18
	if res.BytesUp != wantUp {
		t.Errorf("uplink %d bytes, want exactly %d", res.BytesUp, wantUp)
	}
	if res.BytesPerUpdate != float64(updateFrame) {
		t.Errorf("bytes/update = %v, want %d", res.BytesPerUpdate, updateFrame)
	}
	// Downlink: per round one 22-byte select per client, plus shutdown.
	if res.BytesDown <= int64(clients*rounds)*22 {
		t.Errorf("downlink %d bytes, want > %d", res.BytesDown, clients*rounds*22)
	}
	if res.Checksum == 0 {
		t.Error("zero checksum: no updates folded into the global")
	}
	// The wire path itself is allocation-free; the residue is update
	// generation and round bookkeeping.
	if math.IsNaN(res.AllocsPerUpdate) || res.AllocsPerUpdate > 20 {
		t.Errorf("allocs/update = %v, want < 20", res.AllocsPerUpdate)
	}
}

// TestFleetTCP exercises the tcp transport path (the default for
// cross-host runs) at a small fleet.
func TestFleetTCP(t *testing.T) {
	cfg := fleetCfg(t, 20, 2)
	cfg.Network, cfg.Addr = "tcp", "127.0.0.1:0"
	res, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 40 {
		t.Fatalf("updates = %d, want 40", res.Updates)
	}
}

// TestFleetValidation rejects nonsense configurations.
func TestFleetValidation(t *testing.T) {
	if _, err := RunFleet(FleetConfig{Network: "unix", Addr: "/tmp/x", Wire: "msgpack",
		Clients: 1, Rounds: 1, Dim: 10, Nnz: 1}); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if _, err := RunFleet(FleetConfig{Network: "unix", Addr: "/tmp/x",
		Clients: 0, Rounds: 1, Dim: 10, Nnz: 1}); err == nil {
		t.Fatal("zero clients accepted")
	}
	if _, err := RunFleet(FleetConfig{Network: "unix", Addr: "/tmp/x",
		Clients: 1, Rounds: 1, Dim: 10, Nnz: 20}); err == nil {
		t.Fatal("nnz > dim accepted")
	}
}

// TestFleetExternalClients splits the fleet across the process boundary
// shape: a pure server (ExternalClients) fed by RunFleetClients driving
// two disjoint id ranges, agreeing with an all-in-one run on the same
// seed. (In production the halves are separate flfleet processes so one
// file table never holds both socket ends; here goroutines stand in.)
func TestFleetExternalClients(t *testing.T) {
	const clients, rounds = 60, 2
	cfg := fleetCfg(t, clients, rounds)
	cfg.ExternalClients = true

	resCh := make(chan *FleetResult, 1)
	errCh := make(chan error, 3)
	go func() {
		res, err := RunFleet(cfg)
		errCh <- err
		resCh <- res
	}()
	// Two client halves, as two external driver processes would split the
	// id space. dialRetry absorbs the listener not being up yet.
	for _, r := range [][2]int{{0, clients / 2}, {clients / 2, clients}} {
		go func(lo, hi int) {
			errCh <- RunFleetClients(cfg, lo, hi)
		}(r[0], r[1])
	}
	for i := 0; i < 3; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	res := <-resCh
	if res.Updates != clients*rounds {
		t.Fatalf("updates = %d, want %d", res.Updates, clients*rounds)
	}

	solo, err := RunFleet(fleetCfg(t, clients, rounds))
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(res.Checksum - solo.Checksum); diff > 1e-9*(1+math.Abs(solo.Checksum)) {
		t.Errorf("split checksum %v diverges from all-in-one %v", res.Checksum, solo.Checksum)
	}
}

// TestFleetDeterministicChecksum: two identical binary runs fold the
// same updates; their checksums agree up to summation order.
func TestFleetDeterministicChecksum(t *testing.T) {
	a, err := RunFleet(fleetCfg(t, 40, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(fleetCfg(t, 40, 2))
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(a.Checksum - b.Checksum); diff > 1e-9*(1+math.Abs(a.Checksum)) {
		t.Errorf("repeat runs diverge: %v vs %v", a.Checksum, b.Checksum)
	}
}

// TestFleetUpdateFrameIsRaw pins the frame the ingest benchmarks' frozen
// gates are built on: a FleetUpdate has unsorted, repeating indices and
// full-mantissa values, so the content-chosen sparse layout takes neither
// compact form and the frame stays 4 + 10 + 9 + 12·nnz bytes, sflags 0.
func TestFleetUpdateFrameIsRaw(t *testing.T) {
	u := &compress.Sparse{}
	FleetUpdate(u, 1, 3, 17, 20000, 1000)
	raw := encodeBinaryEnvelope(t, &Envelope{Type: MsgUpdate, ClientID: 17, Round: 3, Update: u})
	if want := 4 + envHeaderBytes + compress.SparseBinarySize(1000); len(raw) != want || want != 12023 {
		t.Fatalf("fleet update frame is %d bytes, want %d (12023)", len(raw), want)
	}
	if sflags := raw[4+envHeaderBytes+8]; sflags != 0 {
		t.Fatalf("fleet update frame has sflags %#x, want 0", sflags)
	}
}
