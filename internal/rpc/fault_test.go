package rpc

import (
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"testing"
	"time"
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

func TestWrapFaultNilPassthrough(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if got := WrapFault(a, nil); got != a {
		t.Fatal("nil config should not wrap")
	}
	if got := WrapFault(a, &FaultConfig{}); got != a {
		t.Fatal("empty config should not wrap")
	}
	if got := WrapFault(a, &FaultConfig{Latency: time.Millisecond}); got == a {
		t.Fatal("active config did not wrap")
	}
}

func TestFaultConnLatency(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go drain(b)
	fc := WrapFault(a, &FaultConfig{Latency: 50 * time.Millisecond})
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
	fc := WrapFault(a, &FaultConfig{CutAfterBytes: 10})
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
	fc := WrapFault(a, &FaultConfig{DropProb: 1, Seed: 7})
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
	fc := WrapFault(a, &FaultConfig{Partition: gate})
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
	fc := WrapFault(a, &FaultConfig{Partition: gate})
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
	fc := WrapFault(a, &FaultConfig{Partition: gate})
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
	if cfg := ff.Config(); cfg != nil {
		t.Fatalf("no flags set should yield nil config, got %+v", cfg)
	}
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	ff2 := RegisterFaultFlags(fs2)
	if err := fs2.Parse([]string{"-fault-latency", "10ms", "-fault-drop", "0.5", "-fault-partition", "50ms"}); err != nil {
		t.Fatal(err)
	}
	cfg := ff2.Config()
	if cfg == nil || cfg.Latency != 10*time.Millisecond || cfg.DropProb != 0.5 {
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
