package compress

import (
	"bytes"
	"math"
	"testing"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// TestQuantizedWireBytesMessageGranularity pins the bugfixed accounting:
// quantized bit costs are ceiled to bytes once per message, not once per
// coordinate. The old accounting charged each coordinate at least a byte,
// so a 3-bit sparse payload of 100 coordinates billed 100 value bytes
// where the packed wire carries ⌈300/8⌉ = 38.
func TestQuantizedWireBytesMessageGranularity(t *testing.T) {
	cases := []struct {
		name string
		msg  *Sparse
		want int
	}{
		{
			// header 8 + norm 4 + ⌈100·3/8⌉ = 38 + 100 indices · 4 = 450.
			"sparse quantized",
			&Sparse{Dim: 1000, Indices: make([]int32, 100), Values: make([]float64, 100),
				QuantBits: 3, QuantLevels: 3, QuantNorm: 1},
			8 + 4 + 38 + 400,
		},
		{
			// Dense quantized omits the index run: 8 + 4 + ⌈3000/8⌉ = 387.
			"dense quantized",
			&Sparse{Dim: 1000, Indices: make([]int32, 1000), Values: make([]float64, 1000),
				QuantBits: 3, QuantLevels: 3, QuantNorm: 1},
			8 + 4 + 375,
		},
		{
			// One 5-bit coordinate still costs a whole byte.
			"single coordinate",
			&Sparse{Dim: 1000, Indices: make([]int32, 1), Values: make([]float64, 1),
				QuantBits: 5, QuantLevels: 15, QuantNorm: 1},
			8 + 4 + 1 + 4,
		},
	}
	for _, c := range cases {
		if got := c.msg.WireBytes(); got != c.want {
			t.Errorf("%s: WireBytes = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestQuantizedCompressionRatioUsesQuantCost(t *testing.T) {
	// TernGrad at dim 1000: 2 bits/coord packed = 8+4+250 = 262 wire bytes
	// against 4008 dense, a ~15x ratio. The pre-fix accounting (1 byte per
	// coordinate floor) reported under 4x.
	g := make([]float64, 1000)
	for i := range g {
		g[i] = float64(i%5) - 2
	}
	msg := NewTernGrad(stats.NewRNG(9)).Encode(g, 0)
	if got := msg.WireBytes(); got != 8+4+250 {
		t.Fatalf("terngrad wire bytes %d, want 262", got)
	}
	if r := msg.CompressionRatio(); r < 15 || r > 16 {
		t.Fatalf("terngrad compression ratio %v, want ~15.3", r)
	}
}

func TestScheduledLevels(t *testing.T) {
	cases := []struct {
		round, min, max, every, want int
	}{
		{0, 3, 63, 8, 3},
		{7, 3, 63, 8, 3},
		{8, 3, 63, 8, 6},
		{16, 3, 63, 8, 12},
		{24, 3, 63, 8, 24},
		{32, 3, 63, 8, 48},
		{40, 3, 63, 8, 63}, // 96 saturates at max
		{1000, 3, 63, 8, 63},
		{5, 0, 0, 0, 1},  // degenerate bounds clamp to [1, 1]
		{10, 4, 2, 1, 4}, // max < min clamps to min
	}
	for _, c := range cases {
		if got := ScheduledLevels(c.round, c.min, c.max, c.every); got != c.want {
			t.Errorf("ScheduledLevels(%d, %d, %d, %d) = %d, want %d",
				c.round, c.min, c.max, c.every, got, c.want)
		}
	}
}

func TestDAdaQuantLevelsResolution(t *testing.T) {
	d := NewDAdaQuant(3, 63, 8, stats.NewRNG(1))
	if d.Levels() != 3 {
		t.Fatalf("round 0 levels %d, want 3", d.Levels())
	}
	d.SetRound(16)
	if d.Levels() != 12 {
		t.Fatalf("round 16 scheduled levels %d, want 12", d.Levels())
	}
	// A negotiated assignment overrides the schedule, clamped to bounds.
	d.SetLevels(200)
	if d.Levels() != 63 {
		t.Fatalf("SetLevels(200) resolved to %d, want clamp 63", d.Levels())
	}
	d.SetLevels(1)
	if d.Levels() != 3 {
		t.Fatalf("SetLevels(1) resolved to %d, want clamp 3", d.Levels())
	}
	// Zero returns control to the schedule.
	d.SetLevels(0)
	if d.Levels() != 12 {
		t.Fatalf("SetLevels(0) resolved to %d, want schedule 12", d.Levels())
	}
	d.Reset()
	if d.Levels() != 3 {
		t.Fatalf("Reset did not clear schedule/pin: levels %d", d.Levels())
	}
}

// TestDAdaQuantWireBytesValueIndependent pins the determinism contract the
// golden-replay tests rely on: the wire cost is a function of (dim, ratio,
// levels) only, never of the gradient values.
func TestDAdaQuantWireBytesValueIndependent(t *testing.T) {
	dim := 500
	r := stats.NewRNG(11)
	for _, ratio := range []float64{1, 4, 12, 50, 400} {
		var want int
		for trial := 0; trial < 4; trial++ {
			d := NewDAdaQuant(3, 63, 8, stats.NewRNG(uint64(trial)))
			d.SetRound(9)
			g := make([]float64, dim)
			for i := range g {
				g[i] = r.Norm() * math.Pow(10, float64(trial-2))
			}
			got := d.Encode(g, ratio).WireBytes()
			if trial == 0 {
				want = got
			} else if got != want {
				t.Fatalf("ratio %v: wire bytes %d on trial %d, want %d", ratio, got, trial, want)
			}
		}
	}
}

func TestDAdaQuantSparsifiesDeepRatios(t *testing.T) {
	dim := 1000
	r := stats.NewRNG(13)
	g := make([]float64, dim)
	for i := range g {
		g[i] = r.Norm()
	}
	d := NewDAdaQuant(3, 3, 8, stats.NewRNG(14)) // 3 levels = 3 bits
	// At ratio 4 dense quantization (8+4+375 vs budget 1002) suffices.
	if msg := d.Encode(g, 4); msg.NNZ() != dim {
		t.Fatalf("ratio 4 sparsified to %d coords, dense quantization reaches it", msg.NNZ())
	}
	// At ratio 100 the budget is ~40 bytes: the codec must go sparse and
	// stay within ~budget.
	msg := d.Encode(g, 100)
	if msg.NNZ() >= dim {
		t.Fatal("ratio 100 not sparsified")
	}
	if got := msg.CompressionRatio(); got < 80 {
		t.Fatalf("ratio 100 achieved only %.1fx", got)
	}
	// An empty message is never produced, even at absurd depth.
	if msg := d.Encode(g, math.Inf(1)); msg.NNZ() < 1 {
		t.Fatal("infinite ratio produced an empty message")
	}
}

func TestDAdaQuantUnbiased(t *testing.T) {
	d := NewDAdaQuant(4, 4, 1, stats.NewRNG(17))
	g := []float64{0.4, -0.8, 0.05, 1.1}
	sum := make([]float64, len(g))
	n := 20000
	for i := 0; i < n; i++ {
		tensor.Axpy(1, d.Encode(g, 1).Dense(), sum)
	}
	for i := range g {
		mean := sum[i] / float64(n)
		if math.Abs(mean-g[i]) > 0.02 {
			t.Fatalf("biased at %d: mean %v, want %v", i, mean, g[i])
		}
	}
}

// TestQuantizedBinaryRoundTripBitIdentical checks the cross-codec wire
// contract: a quantized message survives the packed binary layout with
// bit-identical float64 values, for every quantizing codec, so binary and
// gob sessions converge to the same global model bit for bit.
func TestQuantizedBinaryRoundTripBitIdentical(t *testing.T) {
	r := stats.NewRNG(23)
	g := make([]float64, 300)
	for i := range g {
		g[i] = r.Norm()
	}
	dada := NewDAdaQuant(3, 63, 8, stats.NewRNG(24))
	dada.SetRound(20)
	codecs := []struct {
		name string
		msg  *Sparse
	}{
		{"qsgd", NewQSGD(15, stats.NewRNG(25)).Encode(g, 0)},
		{"terngrad", NewTernGrad(stats.NewRNG(26)).Encode(g, 0)},
		{"dadaquant-dense", dada.Encode(g, 2)},
		{"dadaquant-sparse", dada.Encode(g, 60)},
	}
	for _, c := range codecs {
		enc := c.msg.AppendBinary(nil)
		if len(enc) != c.msg.BinaryWireSize() {
			t.Errorf("%s: encoded %d bytes, BinaryWireSize says %d", c.name, len(enc), c.msg.BinaryWireSize())
		}
		var buf bytes.Buffer
		if err := c.msg.EncodeBinaryTo(&buf, make([]byte, 64), nil); err != nil {
			t.Fatalf("%s: stream encode: %v", c.name, err)
		}
		if !bytes.Equal(buf.Bytes(), enc) {
			t.Errorf("%s: streamed encoding differs from AppendBinary", c.name)
		}
		var dec Sparse
		if err := dec.DecodeBinaryInto(enc); err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if dec.QuantBits != c.msg.QuantBits || dec.QuantLevels != c.msg.QuantLevels ||
			dec.QuantNorm != c.msg.QuantNorm {
			t.Fatalf("%s: quant header lost: got (%d,%d,%v)", c.name, dec.QuantBits, dec.QuantLevels, dec.QuantNorm)
		}
		if dec.WireBytes() != c.msg.WireBytes() {
			t.Errorf("%s: WireBytes changed across the wire: %d vs %d", c.name, dec.WireBytes(), c.msg.WireBytes())
		}
		for i, v := range c.msg.Values {
			if math.Float64bits(dec.Values[i]) != math.Float64bits(v) {
				t.Fatalf("%s: value %d not bit-identical: %x vs %x",
					c.name, i, math.Float64bits(dec.Values[i]), math.Float64bits(v))
			}
		}
	}
}

func TestKForRatioQuantizedBounds(t *testing.T) {
	cases := []struct {
		dim   int
		ratio float64
		bits  int
		want  int
	}{
		{100, 1, 3, 100},          // no compression keeps everything
		{100, 0.5, 3, 100},        // sub-1 same
		{100, math.NaN(), 3, 100}, // NaN degrades to "no compression"
		{10, math.Inf(1), 3, 1},   // +Inf keeps one coordinate
		{100, 1e12, 3, 1},         // absurd depth clamps to 1
	}
	for _, c := range cases {
		if got := KForRatioQuantized(c.dim, c.ratio, c.bits); got != c.want {
			t.Errorf("KForRatioQuantized(%d, %v, %d) = %d, want %d", c.dim, c.ratio, c.bits, got, c.want)
		}
	}
	// Mid-range: k must keep the quantized wire size within the budget.
	dim, ratio, bits := 10000, 25.0, 4
	k := KForRatioQuantized(dim, ratio, bits)
	wire := headerBytes + BytesPerValue + k*BytesPerIndex + (k*bits+7)/8
	if float64(wire) > float64(DenseBytes(dim))/ratio+float64(BytesPerIndex) {
		t.Fatalf("k=%d gives %d wire bytes, over budget %v", k, wire, float64(DenseBytes(dim))/ratio)
	}
}

func TestClampRatio(t *testing.T) {
	cases := []struct {
		in, lo, hi, want float64
	}{
		{5, 1, 10, 5},
		{0.5, 1, 10, 1},
		{-3, 1, 10, 1},
		{50, 1, 10, 10},
		{math.NaN(), 1, 10, 1},
		{math.Inf(1), 1, 10, 10},
		{math.Inf(-1), 1, 10, 1},
	}
	for _, c := range cases {
		if got := ClampRatio(c.in, c.lo, c.hi); got != c.want {
			t.Errorf("ClampRatio(%v, %v, %v) = %v, want %v", c.in, c.lo, c.hi, got, c.want)
		}
	}
}

func TestDGCValidate(t *testing.T) {
	cases := []struct {
		name string
		d    DGC
		ok   bool
	}{
		{"zero struct", DGC{}, true},
		{"classic", DGC{Momentum: 0.9, ClipNorm: 1, MsgClipFactor: 2}, true},
		{"momentum 1", DGC{Momentum: 1}, false},
		{"momentum NaN", DGC{Momentum: math.NaN()}, false},
		{"clip negative", DGC{ClipNorm: -1}, false},
		{"clip NaN", DGC{ClipNorm: math.NaN()}, false},
		{"msgclip negative", DGC{MsgClipFactor: -2}, false},
	}
	for _, c := range cases {
		err := c.d.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: valid config rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
}

// TestDGCRollbackPreservesResidual pins the bugfix: a rejected or lost
// upload must not destroy the error-feedback residual. Before the fix,
// Encode cleared the transmitted coordinates unconditionally, so a
// quarantined round silently threw the staged mass away.
func TestDGCRollbackPreservesResidual(t *testing.T) {
	d := NewDGC(0, 0)
	r := stats.NewRNG(31)
	dim := 100
	g := make([]float64, dim)
	for i := range g {
		g[i] = r.Norm()
	}
	received := make([]float64, dim)
	d.Encode(g, 10).AddTo(received, 1)
	d.Commit()
	before := d.AccumulatedNorm()

	// Round 2: the upload is rejected (quarantine). Rollback must restore
	// the accumulator to exactly its pre-clear state: mass in v equals the
	// committed residual plus the full new gradient.
	g2 := make([]float64, dim)
	for i := range g2 {
		g2[i] = r.Norm()
	}
	msg := d.Encode(g2, 10)
	sent := tensor.Norm2(msg.Values)
	if sent == 0 {
		t.Fatal("nothing transmitted; test is vacuous")
	}
	cleared := d.AccumulatedNorm()
	d.Rollback()
	restored := d.AccumulatedNorm()
	if restored <= cleared {
		t.Fatalf("rollback did not restore mass: %v (cleared) vs %v (restored)", cleared, restored)
	}
	if restored < before {
		t.Fatalf("rolled-back residual %v below pre-round residual %v", restored, before)
	}
	// Exact mass conservation: the round-1 delivery plus the rolled-back
	// residual account for everything ever injected.
	want := make([]float64, dim)
	tensor.Axpy(1, g, want)
	tensor.Axpy(1, g2, want)
	for i, w := range want {
		if math.Abs(received[i]+d.v[i]-w) > 1e-9 {
			t.Fatalf("mass[%d] = %v after rollback, want %v", i, received[i]+d.v[i], w)
		}
	}
	// Idempotence: a second Rollback (or a late Commit) is a no-op.
	d.Rollback()
	d.Commit()
	for i, w := range want {
		if math.Abs(received[i]+d.v[i]-w) > 1e-9 {
			t.Fatalf("double rollback corrupted residual[%d]", i)
		}
	}
}

func TestDGCRollbackMassRetransmitted(t *testing.T) {
	// End-to-end: with one rejected round rolled back, the receiver still
	// converges to the full injected mass — nothing is lost across the
	// failure.
	d := NewDGC(0, 0)
	r := stats.NewRNG(37)
	dim := 50
	total := make([]float64, dim)
	received := make([]float64, dim)
	for round := 0; round < 30; round++ {
		g := make([]float64, dim)
		for i := range g {
			g[i] = r.Norm()
		}
		tensor.Axpy(1, g, total)
		msg := d.Encode(g, 5)
		if round == 10 {
			d.Rollback() // upload lost: server never saw msg
			continue
		}
		msg.AddTo(received, 1)
		d.Commit()
	}
	for i := range total {
		got := received[i] + d.v[i]
		if math.Abs(got-total[i]) > 1e-9 {
			t.Fatalf("mass lost at %d across rejected round: %v vs %v", i, got, total[i])
		}
	}
}

// TestDAdaQuantResidualCarriesUnsentMass pins DAdaQuant's error feedback:
// a deep-ratio encode keeps the coordinates it could not send in the
// residual, a shallow (dense) encode flushes the whole residual, and no
// mass is silently dropped between consecutive deep rounds.
func TestDAdaQuantResidualCarriesUnsentMass(t *testing.T) {
	dim := 64
	g := make([]float64, dim)
	for i := range g {
		g[i] = float64(dim - i) // distinct magnitudes: top-k is indices 0..k-1
	}
	d := NewDAdaQuant(3, 3, 8, stats.NewRNG(5))
	msg := d.Encode(g, 50)
	if msg.NNZ() >= dim {
		t.Fatal("ratio 50 not sparsified; test is vacuous")
	}
	sent := make(map[int32]bool, msg.NNZ())
	for _, idx := range msg.Indices {
		sent[idx] = true
	}
	for i := range g {
		if sent[int32(i)] {
			if d.v[i] != 0 {
				t.Fatalf("sent coord %d left residual %v", i, d.v[i])
			}
		} else if d.v[i] != g[i] {
			t.Fatalf("unsent coord %d: residual %v, want %v", i, d.v[i], g[i])
		}
	}
	// A dense (ratio-1) encode must flush the residual: its norm covers the
	// carried mass even with a zero fresh gradient, and the residual clears.
	zero := make([]float64, dim)
	carried := tensor.Norm2(d.v)
	out := d.Encode(zero, 1)
	if out.QuantNorm != carried {
		t.Fatalf("dense flush norm %v, want carried residual norm %v", out.QuantNorm, carried)
	}
	for i, v := range d.v {
		if v != 0 {
			t.Fatalf("residual[%d] = %v after dense flush", i, v)
		}
	}
}

// TestDAdaQuantRollbackRestoresResidual mirrors the DGC rollback bugfix
// for the quantizing codec: a lost or quarantined upload returns the full
// accumulated gradient to the residual, so nothing is destroyed, and a
// stale second rollback is a no-op.
func TestDAdaQuantRollbackRestoresResidual(t *testing.T) {
	dim := 64
	r := stats.NewRNG(41)
	g := make([]float64, dim)
	for i := range g {
		g[i] = r.Norm()
	}
	d := NewDAdaQuant(3, 3, 8, stats.NewRNG(6))
	if msg := d.Encode(g, 50); msg.NNZ() >= dim {
		t.Fatal("not sparsified; test is vacuous")
	}
	d.Rollback()
	for i := range g {
		if d.v[i] != g[i] {
			t.Fatalf("rollback: residual[%d] = %v, want %v", i, d.v[i], g[i])
		}
	}
	d.Rollback() // idempotent
	d.Commit()   // late commit after rollback is a no-op too
	for i := range g {
		if d.v[i] != g[i] {
			t.Fatalf("stale rollback/commit corrupted residual[%d]", i)
		}
	}
	// The dense path stages as well: encode at ratio 1, roll back, and the
	// accumulated mass (g twice over now) is all still there.
	d.Encode(g, 1)
	d.Rollback()
	for i := range g {
		if math.Abs(d.v[i]-2*g[i]) > 1e-12 {
			t.Fatalf("dense rollback: residual[%d] = %v, want %v", i, d.v[i], 2*g[i])
		}
	}
	// A newer Encode implicitly commits its predecessor: after a committed
	// dense flush, rollback restores only the latest round's gradient.
	d.Encode(g, 1) // flushes 3g, clears v
	d.Encode(g, 50)
	d.Rollback()
	for i := range g {
		if math.Abs(d.v[i]-g[i]) > 1e-12 {
			t.Fatalf("implicit commit: residual[%d] = %v, want %v", i, d.v[i], g[i])
		}
	}
}

func TestDGCEncodeImplicitlyCommits(t *testing.T) {
	// Only the latest Encode can be rolled back: a new Encode discards its
	// predecessor's stage, so a stale Rollback cannot double-credit.
	d := NewDGC(0, 0)
	g := []float64{1, 2, 3, 4}
	d.Encode(g, 2)
	d.Encode(g, 2)
	norm := d.AccumulatedNorm()
	d.Rollback() // undoes only the second encode
	d.Rollback() // no-op
	if d.AccumulatedNorm() < norm {
		t.Fatal("stale rollback shrank the accumulator")
	}
}
