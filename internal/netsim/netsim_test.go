package netsim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"adafl/internal/stats"
)

func TestLinkTransferTimeDeterministicPart(t *testing.T) {
	l := Link{UpBps: 1000, DownBps: 2000, LatencyS: 0.5}
	dur, lost := l.TransferTime(Uplink, 1000, 0, nil)
	if lost {
		t.Fatal("lossless link dropped")
	}
	if math.Abs(dur-1.5) > 1e-12 {
		t.Fatalf("uplink dur = %v, want 1.5", dur)
	}
	dur, _ = l.TransferTime(Downlink, 1000, 0, nil)
	if math.Abs(dur-1.0) > 1e-12 {
		t.Fatalf("downlink dur = %v, want 1.0", dur)
	}
}

func TestLinkZeroSizeIsLatencyOnly(t *testing.T) {
	l := Link{UpBps: 1000, DownBps: 1000, LatencyS: 0.25}
	dur, _ := l.TransferTime(Uplink, 0, 0, nil)
	if dur != 0.25 {
		t.Fatalf("zero-size transfer dur = %v", dur)
	}
}

func TestLinkLossProbability(t *testing.T) {
	l := Link{UpBps: 1000, DownBps: 1000, LossProb: 0.3}
	r := stats.NewRNG(1)
	lostCount := 0
	for i := 0; i < 10000; i++ {
		if _, lost := l.TransferTime(Uplink, 10, 0, r); lost {
			lostCount++
		}
	}
	frac := float64(lostCount) / 10000
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("loss fraction %v, want ~0.3", frac)
	}
}

func TestLinkJitterNonNegative(t *testing.T) {
	l := Link{UpBps: 1e6, DownBps: 1e6, LatencyS: 0.1, JitterS: 0.05}
	r := stats.NewRNG(2)
	base := 0.1 + 100.0/1e6
	for i := 0; i < 1000; i++ {
		dur, _ := l.TransferTime(Uplink, 100, 0, r)
		if dur < base-1e-12 {
			t.Fatalf("jitter reduced duration below base: %v < %v", dur, base)
		}
	}
}

func TestLinkValidate(t *testing.T) {
	good := Link{UpBps: 1, DownBps: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	bad := []Link{
		{UpBps: 0, DownBps: 1},
		{UpBps: 1, DownBps: 1, LatencyS: -1},
		{UpBps: 1, DownBps: 1, LossProb: 1},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad link %d accepted", i)
		}
	}
}

func TestTraceMultiplier(t *testing.T) {
	tr := NewTrace(TraceStep{At: 10, Multiplier: 0.5}, TraceStep{At: 20, Multiplier: 2})
	cases := []struct{ t, want float64 }{{0, 1}, {9.9, 1}, {10, 0.5}, {15, 0.5}, {20, 2}, {100, 2}}
	for _, c := range cases {
		if got := tr.MultiplierAt(c.t); got != c.want {
			t.Errorf("MultiplierAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestTraceAffectsTransfer(t *testing.T) {
	tr := NewTrace(TraceStep{At: 100, Multiplier: 0.1})
	l := Link{UpBps: 1000, DownBps: 1000, Trace: tr}
	before, _ := l.TransferTime(Uplink, 1000, 0, nil)
	after, _ := l.TransferTime(Uplink, 1000, 150, nil)
	if math.Abs(before-1) > 1e-12 || math.Abs(after-10) > 1e-12 {
		t.Fatalf("trace not applied: before=%v after=%v", before, after)
	}
}

func TestRandomWalkTraceBounded(t *testing.T) {
	tr := RandomWalkTrace(stats.NewRNG(3), 1, 100, 0.2, 3)
	for tt := 0.0; tt < 100; tt += 0.5 {
		m := tr.MultiplierAt(tt)
		if m < 0.2-1e-12 && tt >= 0 { // before first step multiplier is 1, within bounds anyway
			t.Fatalf("walk below floor at %v: %v", tt, m)
		}
		if m > 3+1e-12 {
			t.Fatalf("walk above ceiling at %v: %v", tt, m)
		}
	}
}

func TestOutageTrace(t *testing.T) {
	tr := OutageTrace(10, 2, 0.05, 50)
	if tr.MultiplierAt(5) != 1 {
		t.Fatal("multiplier before outage not 1")
	}
	if tr.MultiplierAt(11) != 0.05 {
		t.Fatal("multiplier during outage not floor")
	}
	if tr.MultiplierAt(13) != 1 {
		t.Fatal("multiplier after outage not restored")
	}
}

func TestNetworkPerClientStreams(t *testing.T) {
	n := UniformNetwork(3, Link{UpBps: 1e6, DownBps: 1e6, JitterS: 0.1, LatencyS: 0.1}, 7)
	// Different clients should observe different jitter sequences.
	d0, _ := n.Transfer(0, Uplink, 1000, 0)
	d1, _ := n.Transfer(1, Uplink, 1000, 0)
	if d0 == d1 {
		t.Fatal("clients share jitter stream")
	}
}

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue()
	var order []int
	q.Schedule(3, func() { order = append(order, 3) })
	q.Schedule(1, func() { order = append(order, 1) })
	q.Schedule(2, func() { order = append(order, 2) })
	for q.Step() {
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if q.Now() != 3 {
		t.Fatalf("Now = %v, want 3", q.Now())
	}
}

func TestEventQueueFIFOTies(t *testing.T) {
	q := NewEventQueue()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		q.Schedule(1, func() { order = append(order, i) })
	}
	for q.Step() {
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestEventQueueCascade(t *testing.T) {
	q := NewEventQueue()
	count := 0
	var spawn func()
	spawn = func() {
		count++
		if count < 5 {
			q.Schedule(q.Now()+1, spawn)
		}
	}
	q.Schedule(0, spawn)
	q.RunUntil(100)
	if count != 5 {
		t.Fatalf("cascade ran %d times, want 5", count)
	}
	if q.Now() != 100 {
		t.Fatalf("RunUntil left Now at %v", q.Now())
	}
}

func TestEventQueueRunUntilStopsAtDeadline(t *testing.T) {
	q := NewEventQueue()
	ran := false
	q.Schedule(10, func() { ran = true })
	q.RunUntil(5)
	if ran {
		t.Fatal("event past deadline executed")
	}
	if q.h.Len() != 1 {
		t.Fatal("pending event lost")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	q := NewEventQueue()
	q.Schedule(5, func() {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	q.Schedule(1, func() {})
}

// Property: transfer time is monotone in size for a lossless jitter-free link.
func TestTransferMonotoneProperty(t *testing.T) {
	f := func(up uint32, sizes []uint16) bool {
		l := Link{UpBps: float64(up%100000) + 1, DownBps: 1, LatencyS: 0.01}
		sorted := append([]uint16(nil), sizes...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		prev := -1.0
		for _, s := range sorted {
			d, _ := l.TransferTime(Uplink, int(s), 0, nil)
			if d < prev-1e-12 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
