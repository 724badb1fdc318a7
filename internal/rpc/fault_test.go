package rpc

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"testing"
	"time"

	"adafl/internal/compress"
	"adafl/internal/netsim"
)

// drain keeps reading one side of a pipe so writes on the other side
// never block; it stops when the conn closes.
func drain(c net.Conn) {
	buf := make([]byte, 4096)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}

// wrapLink wraps raw as a client session's first dial on f would.
func wrapLink(raw net.Conn, f *FaultConfig) net.Conn {
	var link *pacer
	if f != nil && f.Link != nil {
		link = &pacer{link: *f.Link}
	}
	return wrapFault(raw, f, link, linkRNG(1, 1))
}

// fastLink is a link whose rates never bind, for tests of one knob.
func fastLink(latencyS float64) *netsim.Link {
	return &netsim.Link{UpBps: 1e12, DownBps: 1e12, LatencyS: latencyS}
}

func TestWrapFaultNilPassthrough(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if got := wrapLink(a, nil); got != a {
		t.Fatal("nil config should not wrap")
	}
	if got := wrapLink(a, &FaultConfig{}); got != a {
		t.Fatal("empty config should not wrap")
	}
	if got := wrapLink(a, &FaultConfig{Link: fastLink(0.001)}); got == a {
		t.Fatal("active config did not wrap")
	}
}

func TestFaultConnLatency(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go drain(b)
	fc := wrapLink(a, &FaultConfig{Link: fastLink(0.05)})
	defer fc.Close()
	start := time.Now()
	if _, err := fc.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 45*time.Millisecond {
		t.Fatalf("latency not injected: write took %v", d)
	}
}

func TestFaultConnCutMidStream(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	got := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(b)
		got <- data
	}()
	fc := wrapLink(a, &FaultConfig{CutAfterBytes: 10})
	n, err := fc.Write([]byte("0123456789abcdef")) // 16 bytes, cut at 10
	if !errors.Is(err, ErrInjectedCut) {
		t.Fatalf("want ErrInjectedCut, got %v", err)
	}
	if n != 10 {
		t.Fatalf("wrote %d bytes, want the 10 before the cut", n)
	}
	if _, err := fc.Write([]byte("x")); err == nil {
		t.Fatal("write after cut succeeded")
	}
	if data := <-got; string(data) != "0123456789" {
		t.Fatalf("peer saw %q", data)
	}
}

func TestFaultConnDropKillsConnection(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	peerClosed := make(chan struct{})
	go func() {
		drain(b)
		close(peerClosed)
	}()
	lossy := netsim.Link{UpBps: 1e12, DownBps: 1e12, LossProb: 1}
	fc := wrapLink(a, &FaultConfig{Link: &lossy})
	if _, err := fc.Write([]byte("doomed")); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("want ErrInjectedDrop, got %v", err)
	}
	select {
	case <-peerClosed:
	case <-time.After(2 * time.Second):
		t.Fatal("drop did not close the underlying conn")
	}
}

func TestGateToggle(t *testing.T) {
	g := NewGate(true)
	if err := g.waitOpen(time.Time{}, nil); err != nil {
		t.Fatal(err)
	}
	g.Set(false)
	deadline := time.Now().Add(30 * time.Millisecond)
	if err := g.waitOpen(deadline, nil); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		g.Open()
	}()
	if err := g.waitOpen(time.Now().Add(5*time.Second), nil); err != nil {
		t.Fatalf("open should release the waiter: %v", err)
	}
}

func TestFaultConnPartitionHonoursDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	gate := NewGate(false)
	fc := wrapLink(a, &FaultConfig{Partition: gate})
	defer fc.Close()
	fc.SetReadDeadline(time.Now().Add(40 * time.Millisecond))
	start := time.Now()
	_, err := fc.Read(make([]byte, 16))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("partitioned read did not respect the deadline promptly")
	}
}

func TestFaultConnPartitionReleasedByClose(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	gate := NewGate(false)
	fc := wrapLink(a, &FaultConfig{Partition: gate})
	errCh := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 16))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	fc.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("want net.ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not release the partition wait")
	}
}

func TestFaultConnPartitionHeals(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	gate := NewGate(false)
	fc := wrapLink(a, &FaultConfig{Partition: gate})
	defer fc.Close()
	go drain(b)
	wrote := make(chan error, 1)
	go func() {
		_, err := fc.Write([]byte("delayed"))
		wrote <- err
	}()
	select {
	case <-wrote:
		t.Fatal("write completed through a shut gate")
	case <-time.After(30 * time.Millisecond):
	}
	gate.Open()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("healed partition did not release the write")
	}
}

func TestFaultFlagsConfig(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	ff := RegisterFaultFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if cfg := ff.Config(nil); cfg != nil {
		t.Fatalf("no flags set should yield nil config, got %+v", cfg)
	}
	if cfg := ff.Config(&netsim.LTELink); cfg == nil || cfg.Link != &netsim.LTELink {
		t.Fatalf("link not carried: %+v", cfg)
	}
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	ff2 := RegisterFaultFlags(fs2)
	if err := fs2.Parse([]string{"-fault-cut-after", "9", "-fault-partition", "50ms"}); err != nil {
		t.Fatal(err)
	}
	cfg := ff2.Config(nil)
	if cfg == nil || cfg.CutAfterBytes != 9 || cfg.Link != nil {
		t.Fatalf("flags not mapped: %+v", cfg)
	}
	if cfg.Partition == nil || cfg.Partition.waitOpen(time.Now(), nil) == nil {
		t.Fatal("partition gate should start shut")
	}
	// The -fault-partition gate heals itself after the duration.
	if err := cfg.Partition.waitOpen(time.Now().Add(5*time.Second), nil); err != nil {
		t.Fatalf("partition gate never healed: %v", err)
	}
}

// TestFaultConnPartitionHoldsInFlightRead: a read already blocked when
// the gate shuts must not deliver what the peer sends during the
// partition; the bytes arrive once the gate opens.
func TestFaultConnPartitionHoldsInFlightRead(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	gate := NewGate(true)
	fc := wrapLink(a, &FaultConfig{Partition: gate})
	defer fc.Close()
	type result struct {
		data []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		buf := make([]byte, 64)
		n, err := fc.Read(buf)
		got <- result{buf[:n], err}
	}()
	time.Sleep(20 * time.Millisecond) // the read is pending
	gate.Set(false)
	go b.Write([]byte("sixteen bytes!!!"))
	select {
	case r := <-got:
		t.Fatalf("read returned %q, %v while partitioned", r.data, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	gate.Open()
	select {
	case r := <-got:
		if r.err != nil || string(r.data) != "sixteen bytes!!!" {
			t.Fatalf("after heal: %q, %v", r.data, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("healed partition did not release the read")
	}
}

// TestFaultConnHeldBytesSurviveDeadline: bytes held at a shut gate past
// the read deadline are delivered by the next read, not lost.
func TestFaultConnHeldBytesSurviveDeadline(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	gate := NewGate(true)
	fc := wrapLink(a, &FaultConfig{Partition: gate})
	defer fc.Close()
	go func() {
		time.Sleep(10 * time.Millisecond)
		gate.Set(false)
		b.Write([]byte("held"))
	}()
	fc.SetReadDeadline(time.Now().Add(60 * time.Millisecond))
	buf := make([]byte, 16)
	if _, err := fc.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	gate.Open()
	fc.SetReadDeadline(time.Time{})
	if n, err := fc.Read(buf); err != nil || string(buf[:n]) != "held" {
		t.Fatalf("next read: %q, %v", buf[:n], err)
	}
}

// TestFaultConnCloseReleasesWaits: Close ends a latency wait and a
// bandwidth wait, in either direction, at once with net.ErrClosed.
func TestFaultConnCloseReleasesWaits(t *testing.T) {
	for _, tt := range []struct {
		name string
		link netsim.Link
		read bool
	}{
		{"latency", *fastLink(0.5), false},
		{"bandwidth", netsim.Link{UpBps: 100e3, DownBps: 1e12}, false},
		{"read bandwidth", netsim.Link{UpBps: 1e12, DownBps: 100e3}, true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer b.Close()
			fc := wrapLink(a, &FaultConfig{Link: &tt.link})
			buf := make([]byte, 100_000) // a second at 100 kB/s
			if tt.read {
				go b.Write(buf)
			} else {
				go drain(b)
			}
			closed := make(chan time.Time, 1)
			time.AfterFunc(20*time.Millisecond, func() {
				closed <- time.Now()
				fc.Close()
			})
			var err error
			if tt.read {
				_, err = fc.Read(buf)
			} else {
				_, err = fc.Write(buf)
			}
			released := time.Since(<-closed)
			if !errors.Is(err, net.ErrClosed) {
				t.Fatalf("want net.ErrClosed, got %v", err)
			}
			if released > 50*time.Millisecond {
				t.Fatalf("wait outlived Close by %v", released)
			}
		})
	}
}

// TestLinkDrawsPerDial: a connection's losses are a function of the
// client's seed and its own dial index, whatever else was wrapped in
// between; distinct dials draw distinct sequences.
func TestLinkDrawsPerDial(t *testing.T) {
	lossy := netsim.Link{UpBps: 1e12, DownBps: 1e12, LossProb: 0.3}
	// survived counts the transfers (a write, then the peer's echo read)
	// before the link drops the connection.
	survived := func(seed uint64, dial int) int {
		a, b := net.Pipe()
		defer b.Close()
		go func() {
			buf := make([]byte, 1)
			for {
				if _, err := b.Read(buf); err != nil {
					return
				}
				if _, err := b.Write(buf); err != nil {
					return
				}
			}
		}()
		fc := wrapFault(a, nil, &pacer{link: lossy}, linkRNG(seed, dial))
		defer fc.Close()
		buf := make([]byte, 1)
		for i := 0; ; i++ {
			if _, err := fc.Write(buf); err != nil {
				if !errors.Is(err, ErrInjectedDrop) {
					t.Fatalf("dial %d: %v", dial, err)
				}
				return i
			}
			if _, err := fc.Read(buf); err != nil {
				t.Fatalf("dial %d: %v", dial, err)
			}
		}
	}
	const dials = 8
	want := make([]int, dials)
	for d := range want {
		want[d] = survived(7, d+1)
	}
	if slices.Min(want) == slices.Max(want) {
		t.Fatalf("every dial drew the same sequence: %v", want)
	}
	for d := dials; d >= 1; d-- {
		survived(99, d) // another client's connections in between
		if got := survived(7, d); got != want[d-1] {
			t.Fatalf("dial %d survived %d transfers, %d before other wraps", d, got, want[d-1])
		}
	}
}

// TestLinkPacingFaithful: 1 MiB crosses a paced link in either direction
// within ±10 % of size/rate, and the first 100 KB after an idle second
// pays its full time: no burst allowance.
func TestLinkPacingFaithful(t *testing.T) {
	const total, head = 1 << 20, 100_000
	for _, rate := range []float64{500e3, 4e6} {
		for _, dir := range []netsim.Direction{netsim.Uplink, netsim.Downlink} {
			t.Run(fmt.Sprintf("%s/%.0fkBps", dir, rate/1e3), func(t *testing.T) {
				t.Parallel()
				a, b := net.Pipe()
				defer b.Close()
				fc := wrapLink(a, &FaultConfig{Link: &netsim.Link{UpBps: rate, DownBps: rate}})
				defer fc.Close()
				if dir == netsim.Uplink {
					go drain(b)
				} else {
					go b.Write(make([]byte, total))
				}
				// move carries n bytes in 32 KiB pieces through fc.
				buf := make([]byte, 32<<10)
				move := func(n int) {
					for n > 0 {
						var m int
						var err error
						if dir == netsim.Uplink {
							m, err = fc.Write(buf[:min(n, len(buf))])
						} else {
							m, err = fc.Read(buf[:min(n, len(buf))])
						}
						if err != nil {
							t.Error(err)
							return
						}
						n -= m
					}
				}
				time.Sleep(time.Second) // an idle second
				start := time.Now()
				move(head)
				first := time.Since(start)
				move(total - head)
				all := time.Since(start)
				if want := time.Duration(0.9 * head / rate * float64(time.Second)); first < want {
					t.Errorf("first %d B after an idle second took %v, want at least %v", head, first, want)
				}
				want := total / rate
				if got := all.Seconds(); got < 0.9*want || got > 1.1*want {
					t.Errorf("%d B took %.3fs, want %.3fs ±10%%", total, got, want)
				}
			})
		}
	}
}

// TestLinkLatencyOncePerTransfer: one update frame the size of the paper
// CNN's (454 KB: values that are not float32s travel raw, 8 B each) sent
// on the LTE preset takes what the simulator charges for it,
// Link.TransferTime(Uplink, frame bytes): latency and jitter once per
// transfer, not once per buffered chunk.
func TestLinkLatencyOncePerTransfer(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go drain(b)
	link := netsim.LTELink
	fc := wrapLink(a, &FaultConfig{Link: &link})
	defer fc.Close()
	conn := NewBinaryConn(fc, nil)
	vals := make([]float64, 56_800)
	for i := range vals {
		vals[i] = 0.1 + float64(i)
	}
	update := compress.NewSparseDense(vals)
	start := time.Now()
	if err := conn.Send(&Envelope{Type: MsgUpdate, Update: update}); err != nil {
		t.Fatal(err)
	}
	got := time.Since(start).Seconds()
	frame := int(conn.BytesSent())
	if frame < 450_000 || frame > 460_000 {
		t.Fatalf("frame is %d B, want about 454 KB", frame)
	}
	want, _ := link.TransferTime(netsim.Uplink, frame, 0, linkRNG(1, 1))
	if got < 0.9*want || got > 1.1*want {
		t.Fatalf("%d-byte frame took %.3fs, the simulator charges %.3fs", frame, got, want)
	}
}
