package netsim

import (
	"strings"
	"testing"
	"testing/quick"

	"adafl/internal/stats"
)

// Additional trace and network behaviours.

func TestEmptyTraceIsIdentity(t *testing.T) {
	tr := NewTrace()
	for _, tt := range []float64{0, 1, 100} {
		if tr.MultiplierAt(tt) != 1 {
			t.Fatalf("empty trace multiplier %v at %v", tr.MultiplierAt(tt), tt)
		}
	}
}

func TestNewTracePanicsOnNonPositiveMultiplier(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero multiplier accepted")
		}
	}()
	NewTrace(TraceStep{At: 0, Multiplier: 0})
}

func TestTraceStepsSortedRegardlessOfInput(t *testing.T) {
	tr := NewTrace(
		TraceStep{At: 20, Multiplier: 3},
		TraceStep{At: 10, Multiplier: 2},
	)
	if tr.MultiplierAt(15) != 2 || tr.MultiplierAt(25) != 3 {
		t.Fatal("unsorted steps not handled")
	}
}

func TestTraceMultiplierPiecewiseConstantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		steps := make([]TraceStep, 5)
		for i := range steps {
			steps[i] = TraceStep{At: r.Float64() * 100, Multiplier: 0.1 + r.Float64()}
		}
		tr := NewTrace(steps...)
		// The multiplier is always one of the step values or 1.
		valid := map[float64]bool{1: true}
		for _, s := range steps {
			valid[s.Multiplier] = true
		}
		for x := 0.0; x < 120; x += 3.7 {
			if !valid[tr.MultiplierAt(x)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNetworkSetLinkValidates(t *testing.T) {
	n := UniformNetwork(2, EthernetLink, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid link accepted")
		}
	}()
	n.SetLink(0, Link{})
}

func TestLinkPresetsValid(t *testing.T) {
	for _, l := range []Link{EthernetLink, WiFiLink, LTELink, ConstrainedLink} {
		if err := l.Validate(); err != nil {
			t.Errorf("preset invalid: %v", err)
		}
	}
	// Presets must be ordered by uplink quality.
	if !(EthernetLink.UpBps > WiFiLink.UpBps &&
		WiFiLink.UpBps > LTELink.UpBps &&
		LTELink.UpBps > ConstrainedLink.UpBps) {
		t.Error("preset ordering broken")
	}
}

func TestBandwidthsReflectTrace(t *testing.T) {
	l := WiFiLink
	l.Trace = NewTrace(TraceStep{At: 10, Multiplier: 0.5})
	upBefore, downBefore := l.Bandwidths(0)
	upAfter, downAfter := l.Bandwidths(20)
	if upAfter != upBefore/2 || downAfter != downBefore/2 {
		t.Fatalf("trace not reflected in Bandwidths: %v/%v -> %v/%v",
			upBefore, downBefore, upAfter, downAfter)
	}
}

func TestDirectionString(t *testing.T) {
	if Uplink.String() != "uplink" || Downlink.String() != "downlink" {
		t.Fatal("direction names wrong")
	}
}

func TestEventQueueLen(t *testing.T) {
	q := NewEventQueue()
	if q.h.Len() != 0 {
		t.Fatal("fresh queue not empty")
	}
	q.Schedule(1, func() {})
	q.Schedule(2, func() {})
	if q.h.Len() != 2 {
		t.Fatalf("Len = %d", q.h.Len())
	}
	q.Step()
	if q.h.Len() != 1 {
		t.Fatalf("Len after step = %d", q.h.Len())
	}
}

func TestEventQueueStressOrdering(t *testing.T) {
	q := NewEventQueue()
	r := stats.NewRNG(9)
	var times []float64
	for i := 0; i < 500; i++ {
		at := r.Float64() * 1000
		q.Schedule(at, func() { times = append(times, q.Now()) })
	}
	for q.Step() {
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("events out of order at %d: %v < %v", i, times[i], times[i-1])
		}
	}
	if len(times) != 500 {
		t.Fatalf("ran %d of 500 events", len(times))
	}
}

func TestParseTraceCSVRoundTrip(t *testing.T) {
	orig := NewTrace(
		TraceStep{At: 5, Multiplier: 0.5},
		TraceStep{At: 12, Multiplier: 1.5},
	)
	parsed, err := ParseTraceCSV(strings.NewReader("# time,multiplier\n5,0.5\n12,1.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 6, 13} {
		if parsed.MultiplierAt(x) != orig.MultiplierAt(x) {
			t.Fatalf("round trip mismatch at %v", x)
		}
	}
}

func TestParseTraceCSVErrors(t *testing.T) {
	cases := []string{
		"1",   // missing field
		"a,1", // bad time
		"1,b", // bad multiplier
		"1,0", // non-positive multiplier
	}
	for _, c := range cases {
		if _, err := ParseTraceCSV(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}

func TestParseTraceCSVSkipsCommentsAndBlanks(t *testing.T) {
	input := "# comment\n\n10, 0.5\n"
	tr, err := ParseTraceCSV(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if tr.MultiplierAt(11) != 0.5 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestPresetNamesEveryPreset(t *testing.T) {
	for name, want := range map[string]Link{"ethernet": EthernetLink, "wifi": WiFiLink, "lte": LTELink, "constrained": ConstrainedLink} {
		if got, err := Preset(name); err != nil || got != want {
			t.Errorf("Preset(%q) = %+v, %v", name, got, err)
		}
	}
	if _, err := Preset("dialup"); err == nil {
		t.Error("unknown preset accepted")
	}
}
