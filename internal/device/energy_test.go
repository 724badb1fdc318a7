package device

import (
	"math"
	"testing"
)

func TestBatteryDepletionExactlyAtRoundBoundary(t *testing.T) {
	// A round's train drain that lands exactly on the remaining charge
	// must count as depleted, not hover at an epsilon above zero.
	b := Battery{CapacityJ: 100, LevelJ: 20, TrainW: 4}
	b.DrainTrain(5) // 4 W × 5 s = 20 J, exactly the remaining level
	if b.LevelJ != 0 {
		t.Fatalf("level after exact drain = %v, want 0", b.LevelJ)
	}
	if !b.Depleted() {
		t.Fatal("exact-boundary drain not reported as depleted")
	}
	// Over-drain clamps at zero rather than going negative.
	b.DrainTrain(100)
	if b.LevelJ != 0 {
		t.Fatalf("level after over-drain = %v", b.LevelJ)
	}
}

func TestBatteryMainsNeverDepletes(t *testing.T) {
	b := Battery{} // zero capacity = mains
	b.DrainTrain(1e9)
	b.DrainTx(1 << 40)
	b.DrainIdle(1e9)
	if b.Depleted() {
		t.Fatal("mains device depleted")
	}
	if b.Level() != 1 {
		t.Fatalf("mains level = %v, want 1", b.Level())
	}
	b.Charge(1e9)
	if b.LevelJ != 0 {
		t.Fatal("mains charge changed level")
	}
}

func TestBatteryTxDrain(t *testing.T) {
	b := Battery{CapacityJ: 10, LevelJ: 10, TxJPerByte: 1e-3}
	b.DrainTx(5000) // 5 J
	if math.Abs(b.LevelJ-5) > 1e-12 {
		t.Fatalf("level after tx = %v, want 5", b.LevelJ)
	}
}

func TestBatteryChargeClampsAtCapacity(t *testing.T) {
	b := Battery{CapacityJ: 50, LevelJ: 40}
	b.Charge(100)
	if b.LevelJ != 50 {
		t.Fatalf("level after over-charge = %v, want 50", b.LevelJ)
	}
}

func TestRechargeWindowValidate(t *testing.T) {
	cases := []struct {
		name string
		w    RechargeWindow
		ok   bool
	}{
		{"one shot", RechargeWindow{StartS: 0, EndS: 10, Watts: 5}, true},
		{"periodic", RechargeWindow{StartS: 10, EndS: 20, PeriodS: 60, Watts: 5}, true},
		{"end before start", RechargeWindow{StartS: 10, EndS: 5, Watts: 5}, false},
		{"window longer than period", RechargeWindow{StartS: 0, EndS: 30, PeriodS: 20, Watts: 5}, false},
		{"negative watts", RechargeWindow{StartS: 0, EndS: 10, Watts: -1}, false},
		{"nan start", RechargeWindow{StartS: math.NaN(), EndS: 10, Watts: 1}, false},
	}
	for _, c := range cases {
		if err := c.w.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestRechargeWindowEnergyOneShot(t *testing.T) {
	w := RechargeWindow{StartS: 10, EndS: 20, Watts: 2}
	cases := []struct {
		t0, t1, want float64
	}{
		{0, 5, 0},    // entirely before
		{0, 15, 10},  // crosses the start boundary: 5 s inside
		{12, 18, 12}, // entirely inside
		{15, 30, 10}, // crosses the end boundary: 5 s inside
		{25, 40, 0},  // entirely after
		{0, 40, 20},  // covers the whole window
	}
	for _, c := range cases {
		if got := w.EnergyOver(c.t0, c.t1); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("EnergyOver(%v, %v) = %v, want %v", c.t0, c.t1, got, c.want)
		}
	}
}

func TestRechargeWindowEnergyPeriodicCrossing(t *testing.T) {
	// Charge during [0, 10) of every 100 s cycle at 3 W.
	w := RechargeWindow{StartS: 0, EndS: 10, PeriodS: 100, Watts: 3}
	// An interval crossing two cycles: [95, 205) sees the full [100, 110)
	// window and half of [200, 210).
	if got, want := w.EnergyOver(95, 205), 3*15.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("crossing interval energy = %v, want %v", got, want)
	}
	// A split integration must equal the whole (scenario resume gap).
	whole := w.EnergyOver(0, 1000)
	split := w.EnergyOver(0, 333) + w.EnergyOver(333, 1000)
	if math.Abs(whole-split) > 1e-9 {
		t.Fatalf("split integration %v != whole %v", split, whole)
	}
	if math.Abs(whole-3*10*10) > 1e-9 {
		t.Fatalf("10 cycles energy = %v, want %v", whole, 300.0)
	}
}

func TestRechargeWindowEmptyAndReversedIntervals(t *testing.T) {
	w := RechargeWindow{StartS: 0, EndS: 10, PeriodS: 100, Watts: 3}
	if w.EnergyOver(5, 5) != 0 {
		t.Fatal("empty interval delivered energy")
	}
	if w.EnergyOver(10, 5) != 0 {
		t.Fatal("reversed interval delivered energy")
	}
}

func TestBatteryRechargeCrossingRestoresAvailability(t *testing.T) {
	// End-to-end battery cycle: drain to depletion, then a recharge
	// window crossing brings the level back above zero.
	b := Battery{CapacityJ: 100, LevelJ: 10, TrainW: 5}
	b.DrainTrain(2) // exactly depleted
	if !b.Depleted() {
		t.Fatal("not depleted")
	}
	w := RechargeWindow{StartS: 100, EndS: 200, Watts: 0.5}
	b.Charge(w.EnergyOver(90, 150)) // 50 s inside the window = 25 J
	if b.Depleted() {
		t.Fatal("still depleted after recharge crossing")
	}
	if math.Abs(b.LevelJ-25) > 1e-9 {
		t.Fatalf("level after recharge = %v, want 25", b.LevelJ)
	}
}
