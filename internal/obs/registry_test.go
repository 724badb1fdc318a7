package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndInstrumentsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", LinearBuckets(1, 1, 3))
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry exposition: %q, %v", buf.String(), err)
	}
}

// TestNilInstrumentsAllocationFree pins the zero-cost-when-disabled
// contract: recording into nil instruments must not allocate.
func TestNilInstrumentsAllocationFree(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", ScoreBuckets)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(1.5)
		h.Observe(0.25)
	})
	if allocs != 0 {
		t.Fatalf("nil-instrument ops allocated %.1f times per run", allocs)
	}
}

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("adafl_rounds_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("adafl_rounds_total") != c {
		t.Fatal("second lookup must return the same counter")
	}

	g := r.Gauge("adafl_round_accuracy")
	g.Set(0.5)
	g.Add(0.25)
	if got := g.Value(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("gauge = %v, want 0.75", got)
	}

	h := r.Histogram("adafl_utility_score", []float64{0.25, 0.5, 0.75})
	for _, v := range []float64{0.1, 0.3, 0.6, 0.9, 0.5} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	if h.Count() != 5 {
		t.Fatalf("histogram count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-2.4) > 1e-12 {
		t.Fatalf("histogram sum = %v, want 2.4", h.Sum())
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as a gauge after a counter must panic")
		}
	}()
	r.Gauge("x")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`adafl_bytes_total{dir="up"}`).Add(100)
	r.Counter(`adafl_bytes_total{dir="down"}`).Add(200)
	r.Gauge("adafl_round_participants").Set(4)
	h := r.Histogram("adafl_round_seconds", []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE adafl_bytes_total counter\n",
		`adafl_bytes_total{dir="up"} 100` + "\n",
		`adafl_bytes_total{dir="down"} 200` + "\n",
		"# TYPE adafl_round_participants gauge\n",
		"adafl_round_participants 4\n",
		"# TYPE adafl_round_seconds histogram\n",
		`adafl_round_seconds_bucket{le="0.5"} 1` + "\n",
		`adafl_round_seconds_bucket{le="1"} 2` + "\n",
		`adafl_round_seconds_bucket{le="+Inf"} 3` + "\n",
		"adafl_round_seconds_sum 5.9\n",
		"adafl_round_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE adafl_bytes_total"); n != 1 {
		t.Errorf("family header emitted %d times, want once", n)
	}
	checkPrometheusParses(t, out)
}

// checkPrometheusParses runs a minimal text-format validation over every
// exposition line: `# TYPE name kind` comments and `series value` samples.
func checkPrometheusParses(t *testing.T, out string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("bad TYPE line %q", line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("bad metric kind in %q", line)
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Errorf("sample line without value: %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil && line[i+1:] != "+Inf" {
			t.Errorf("unparseable sample value in %q: %v", line, err)
		}
		series := line[:i]
		if j := strings.IndexByte(series, '{'); j >= 0 && !strings.HasSuffix(series, "}") {
			t.Errorf("unterminated label block in %q", line)
		}
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared_total").Inc()
				r.Gauge(fmt.Sprintf("g_%d", i%2)).Set(float64(j))
				r.Histogram("h", ScoreBuckets).Observe(float64(j%20) / 20)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", ScoreBuckets).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(1, 2, 3)
	if lin[0] != 1 || lin[1] != 3 || lin[2] != 5 {
		t.Fatalf("linear buckets %v", lin)
	}
	exp := ExpBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Fatalf("exp buckets %v", exp)
	}
	for _, bs := range [][]float64{ScoreBuckets, RatioBuckets, LatencyBuckets} {
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				t.Fatalf("buckets not ascending: %v", bs)
			}
		}
	}
}
