package rpc

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestFleetValidation rejects nonsense configurations in both entry
// points with the validation's own error. The address cannot be listened
// on or dialled, so a check that went missing would surface as a socket
// error instead — and the server would never reach its Dim-length
// allocation.
func TestFleetValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  FleetConfig
		want string // substring of the validation error
		// serverOnly: the client half takes its range from lo, hi, not
		// from cfg.Clients.
		serverOnly bool
	}{
		{"unknown codec", FleetConfig{Wire: "msgpack", Clients: 1, Rounds: 1, Dim: 10, Nnz: 1}, "unknown wire codec", false},
		{"zero clients", FleetConfig{Clients: 0, Rounds: 1, Dim: 10, Nnz: 1}, "clients, rounds >= 1", true},
		{"zero dim", FleetConfig{Clients: 1, Rounds: 1, Dim: 0, Nnz: 1}, "1 <= nnz <= dim", false},
		{"nnz > dim", FleetConfig{Clients: 1, Rounds: 1, Dim: 10, Nnz: 20}, "1 <= nnz <= dim", false},
		{"dim past int32", FleetConfig{Clients: 1, Rounds: 1, Dim: math.MaxInt32 + 1, Nnz: 1}, "overflows the wire's int32", false},
	} {
		tc.cfg.Network, tc.cfg.Addr = "unix", "/nonexistent/fleet.sock"
		if _, err := RunFleet(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunFleet: %s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
		if tc.serverOnly {
			continue
		}
		if err := RunFleetClients(tc.cfg, 0, 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunFleetClients: %s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	if err := CheckFleetShape(math.MaxInt32, 1); err != nil {
		t.Errorf("dim = MaxInt32 rejected: %v", err)
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
	if res.Checksum != solo.Checksum {
		t.Errorf("split checksum %v differs from all-in-one %v", res.Checksum, solo.Checksum)
	}
}

// TestFleetDeterministicChecksum: two identical binary runs fold the
// same updates in whatever order the readers race to, and their checksums
// are the same bits.
func TestFleetDeterministicChecksum(t *testing.T) {
	a, err := RunFleet(fleetCfg(t, 40, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(fleetCfg(t, 40, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum {
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

// TestFleetUpdateContract pins what the fleet harnesses rely on from the
// generator: determinism in (seed, round, id), in-range unsorted indices
// with repeats, values with mean 0 and standard deviation 0.01, and no
// allocation once u is warm.
func TestFleetUpdateContract(t *testing.T) {
	const dim, nnz = 20000, 1000
	a, b := &compress.Sparse{}, &compress.Sparse{}
	FleetUpdate(a, 7, 3, 17, dim, nnz)
	FleetUpdate(b, 7, 3, 17, dim, nnz)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, round, id) gave different updates")
	}
	for _, o := range [][3]int{{8, 3, 17}, {7, 4, 17}, {7, 3, 18}} {
		FleetUpdate(b, uint64(o[0]), o[1], o[2], dim, nnz)
		if reflect.DeepEqual(a.Indices, b.Indices) || reflect.DeepEqual(a.Values, b.Values) {
			t.Errorf("(seed, round, id) = %v repeats the stream of (7, 3, 17)", o)
		}
	}

	seen := make(map[int32]bool, nnz)
	repeat, ascending := false, true
	for i, ix := range a.Indices {
		if ix < 0 || int(ix) >= dim {
			t.Fatalf("index %d = %d outside [0, %d)", i, ix, dim)
		}
		repeat = repeat || seen[ix]
		seen[ix] = true
		if i > 0 && ix < a.Indices[i-1] {
			ascending = false
		}
	}
	if !repeat || ascending {
		t.Errorf("indices: repeat %v, ascending %v; want a repeat and no order", repeat, ascending)
	}

	var sum, sq float64
	var n int
	for id := 0; id < 64; id++ {
		FleetUpdate(b, 1, 1, id, dim, nnz)
		for _, v := range b.Values {
			sum += v
			sq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	std := math.Sqrt(sq/float64(n) - mean*mean)
	if math.Abs(mean) >= 1e-3 || math.Abs(std-0.01) > 0.05*0.01 {
		t.Errorf("values over %d draws: mean %.3g, std %.4g; want |mean| < 1e-3, std 0.01 ± 5%%", n, mean, std)
	}

	if allocs := testing.AllocsPerRun(20, func() { FleetUpdate(b, 1, 2, 3, dim, nnz) }); allocs != 0 {
		t.Errorf("warm FleetUpdate allocates %v times, want 0", allocs)
	}
}

// BenchmarkFleetUpdate is the generator's cost per update at the ingest
// workloads' shape (dim 20000, nnz 1000).
func BenchmarkFleetUpdate(b *testing.B) {
	u := &compress.Sparse{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FleetUpdate(u, 1, i, i&63, 20000, 1000)
	}
}

// BenchmarkRunFleet is fleet_ingest's session without bench/: 64
// unix-socket clients, dim 20000, nnz 1000, one lockstep round per
// iteration. updates/s is read off RunFleet's own round-loop clock, so it
// leaves out the dials and registration that ns/op includes.
func BenchmarkRunFleet(b *testing.B) {
	res, err := RunFleet(FleetConfig{
		Network: "unix", Addr: filepath.Join(b.TempDir(), "fleet.sock"),
		Clients: 64, Rounds: b.N, Dim: 20000, Nnz: 1000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.UpdatesPerSec, "updates/s")
}

// runFleetAsync starts RunFleet; fleetDone waits for its error under a
// deadline of its own, so a server stuck at its barrier fails the test
// instead of hanging it.
func runFleetAsync(cfg FleetConfig) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := RunFleet(cfg)
		done <- err
	}()
	return done
}

func fleetDone(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("RunFleet did not return within 10 s")
		return nil
	}
}

// fleetPeer dials a RunFleet server as the hand-driven external client
// id and sends its hello.
func fleetPeer(t *testing.T, cfg FleetConfig, id int) net.Conn {
	t.Helper()
	dialer := &fleetRun{dialNet: cfg.Network, dialAddr: cfg.Addr, aborted: make(chan struct{})}
	raw, err := dialer.dialRetry() // the server may not be listening yet
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	if err := newBinaryConn(raw, 1024).Send(&Envelope{Type: MsgHello, ClientID: id, NumSamples: 1}); err != nil {
		t.Fatal(err)
	}
	return raw
}

// awaitSelect returns once each peer has read the first round's select.
func awaitSelect(t *testing.T, raws ...net.Conn) {
	t.Helper()
	for _, raw := range raws {
		if e, err := newBinaryConn(raw, 1024).Recv(); err != nil || e.Type != MsgSelect {
			t.Fatalf("first frame: %v, %v; want a select", e, err)
		}
	}
}

// TestFleetRejectsHostileUpdate: an update the server's tree would not
// fold — one that does not fit the model, leaves the fold window or has
// no finite value — ends the run with an error naming the client; it must
// not reach the fold, where an out-of-range index panics the process. In
// a two-client fleet client 1 sends an honest update beside it, so the
// round's weight is ½ each.
func TestFleetRejectsHostileUpdate(t *testing.T) {
	const dim = 2000 // fleetCfg's
	nan := math.NaN()
	for _, tc := range []struct {
		name    string
		clients int
		u       *compress.Sparse
		want    string
	}{
		{"index past dim", 1, &compress.Sparse{Dim: dim, Indices: []int32{3, dim + 5}, Values: []float64{1, 1}}, "index 2005"},
		{"wrong dim", 1, &compress.Sparse{Dim: dim + 1, Indices: []int32{3}, Values: []float64{1}}, "dim 2001, expected 2000"},
		{"outside the fold window", 2, &compress.Sparse{Dim: dim, Indices: []int32{3}, Values: []float64{1e3}}, "outside the fold window"},
		{"entirely non-finite", 1, &compress.Sparse{Dim: dim, Indices: []int32{3, 4}, Values: []float64{nan, nan}}, "entirely non-finite"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fleetCfg(t, tc.clients, 2)
			cfg.ExternalClients = true
			done := runFleetAsync(cfg)
			var peers []net.Conn
			for id := 0; id < tc.clients; id++ {
				peers = append(peers, fleetPeer(t, cfg, id))
			}
			awaitSelect(t, peers...)
			if err := sendFleetUpdate(peers[0], 0, 0, tc.u); err != nil {
				t.Fatal(err)
			}
			if tc.clients > 1 {
				honest := &compress.Sparse{}
				FleetUpdate(honest, cfg.Seed, 0, 1, dim, cfg.Nnz)
				if err := sendFleetUpdate(peers[1], 1, 0, honest); err != nil {
					t.Fatal(err)
				}
			}
			err := fleetDone(t, done)
			if err == nil || !strings.Contains(err.Error(), "client 0 sent a bad update") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunFleet: %v; want an error naming client 0 and %q", err, tc.want)
			}
		})
	}
}

// TestFleetRejectsBadHelloIds: a hello whose id is outside [0, Clients),
// or one already registered (two client processes given overlapping
// ranges), ends the run with an error naming the client, before any round
// starts.
func TestFleetRejectsBadHelloIds(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  []int
		want string
	}{
		{"outside the fleet", []int{7}, "client 7 is outside the fleet's ids [0, 2)"},
		{"negative", []int{-1}, "client -1 is outside the fleet's ids [0, 2)"},
		{"registered twice", []int{1, 1}, "client 1 registered twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fleetCfg(t, 2, 1)
			cfg.ExternalClients = true
			done := runFleetAsync(cfg)
			for _, id := range tc.ids {
				fleetPeer(t, cfg, id)
			}
			if err := fleetDone(t, done); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunFleet: %v; want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestFleetAbortsWhenClientVanishes: an external client that closes its
// socket mid-session ends the run with an error naming it, instead of
// leaving the round barrier waiting for its update forever.
func TestFleetAbortsWhenClientVanishes(t *testing.T) {
	cfg := fleetCfg(t, 1, 3)
	cfg.ExternalClients = true
	done := runFleetAsync(cfg)
	peer := fleetPeer(t, cfg, 0)
	awaitSelect(t, peer)
	peer.Close()
	const want = "client 0 disconnected mid-session"
	if err := fleetDone(t, done); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("RunFleet: %v; want an error containing %q", err, want)
	}
}

// writeCounter counts the Write calls made on a connection.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// TestFleetClientOneWritePerUpdate pins the client's send path: each
// update frame leaves in exactly one Write, and its bytes are the ones
// Conn.Send would have written.
func TestFleetClientOneWritePerUpdate(t *testing.T) {
	const id, rounds = 5, 3
	cfg := fleetCfg(t, 8, rounds)
	cfg.Dim, cfg.Nnz = 20000, 1000
	server, client := net.Pipe()
	defer server.Close()
	wc := &writeCounter{Conn: client}
	errc := make(chan error, 1)
	go func() {
		_, err := FleetMember(newBinaryConn(wc, 1024), id, cfg.Seed, cfg.Dim, cfg.Nnz, nil)
		errc <- err
	}()

	readFrame := func() []byte {
		var hdr [4]byte
		if _, err := io.ReadFull(server, hdr[:]); err != nil {
			t.Fatal(err)
		}
		frame := make([]byte, 4+int(binary.LittleEndian.Uint32(hdr[:])))
		copy(frame, hdr[:])
		if _, err := io.ReadFull(server, frame[4:]); err != nil {
			t.Fatal(err)
		}
		return frame
	}
	send := func(e *Envelope) {
		if _, err := server.Write(encodeBinaryEnvelope(t, e)); err != nil {
			t.Fatal(err)
		}
	}
	readFrame() // the hello
	want := &compress.Sparse{}
	for r := 0; r < rounds; r++ {
		before := wc.writes.Load()
		send(&Envelope{Type: MsgSelect, Round: r, Ratio: 1})
		got := readFrame()
		if n := wc.writes.Load() - before; n != 1 {
			t.Errorf("round %d: the update frame took %d writes, want 1", r, n)
		}
		FleetUpdate(want, cfg.Seed, r, id, cfg.Dim, cfg.Nnz)
		if !bytes.Equal(got, encodeBinaryEnvelope(t, &Envelope{Type: MsgUpdate, ClientID: id, Round: r, Update: want})) {
			t.Fatalf("round %d: the %d-byte update frame differs from Conn.Send's", r, len(got))
		}
	}
	send(&Envelope{Type: MsgShutdown, Info: "done"})
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
