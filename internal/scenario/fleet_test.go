package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func mustParse(t *testing.T, body string) *Scenario {
	t.Helper()
	sc, err := Parse(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// batteryScenario: one mains class and one battery class that depletes
// after two 60 s rounds of idle drain and recharges from t = 300 s.
func batteryScenario(t *testing.T) *Scenario {
	return mustParse(t, `{
		"name": "batt", "seed": 9, "round_seconds": 60,
		"classes": [
			{"name": "mains", "weight": 1},
			{"name": "batt", "weight": 1, "battery": {
				"capacity_j": 100, "initial_frac": 0.35,
				"train_watts": 2, "idle_watts": 0.5, "tx_joules_per_mb": 20,
				"recharge": [{"start_s": 300, "end_s": 600, "period_s": 1200, "watts": 2}]
			}}
		]
	}`)
}

func TestClassCountsLargestRemainder(t *testing.T) {
	classes := []Class{{Weight: 1}, {Weight: 1}, {Weight: 2}}
	counts := classCounts(classes, 10)
	if counts[0]+counts[1]+counts[2] != 10 {
		t.Fatalf("counts %v do not sum to 10", counts)
	}
	if counts[2] != 5 {
		t.Fatalf("weight-2 class got %d of 10", counts[2])
	}
	// One client still gets a class even when its weight share rounds to 0.
	tiny := classCounts([]Class{{Weight: 1000}, {Weight: 1}}, 3)
	if tiny[0]+tiny[1] != 3 {
		t.Fatalf("tiny counts %v", tiny)
	}
}

func TestFleetDeterministicConstruction(t *testing.T) {
	sc := batteryScenario(t)
	a, err := NewFleet(sc, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewFleet(sc, 16)
	for i := 0; i < 16; i++ {
		if a.class[i] != b.class[i] || a.quantile[i] != b.quantile[i] ||
			a.phase[i] != b.phase[i] || a.region[i] != b.region[i] {
			t.Fatalf("client %d differs between identically seeded fleets", i)
		}
	}
}

func TestFleetBatteryDepletionAndRecharge(t *testing.T) {
	f, err := NewFleet(batteryScenario(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Find the battery client.
	batt := -1
	for i := 0; i < 2; i++ {
		if f.ClassName(i) == "batt" {
			batt = i
		}
	}
	if batt == -1 {
		t.Fatal("no battery client in 2-client fleet with weight 1:1")
	}
	mains := 1 - batt

	downAt, upAt := -1, -1
	for r := 0; r < 10; r++ {
		f.BeginRound(r)
		if !f.Available(mains) {
			t.Fatalf("mains client offline at round %d", r)
		}
		if !f.Available(batt) && downAt == -1 {
			downAt = r
		}
		if downAt != -1 && upAt == -1 && f.Available(batt) {
			upAt = r
		}
	}
	// 35 J at 0.5 W idle over 60 s rounds: 5 J after round 1's
	// integration, 0 at round 2; recharge window opens at 300 s, so the
	// round-6 integration (covering [300, 360)) brings it back.
	if downAt != 2 {
		t.Fatalf("battery client went down at round %d, want 2", downAt)
	}
	if upAt != 6 {
		t.Fatalf("battery client rejoined at round %d, want 6", upAt)
	}
}

func TestFleetScoreMultTracksBatteryLevel(t *testing.T) {
	f, err := NewFleet(batteryScenario(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	batt := 0
	if f.ClassName(0) == "mains" {
		batt = 1
	}
	f.BeginRound(0)
	if got := f.ScoreMult(1 - batt); got != 1 {
		t.Fatalf("mains score mult = %v", got)
	}
	// Level 0.35 → 0.25 + 0.75·0.35.
	want := 0.25 + 0.75*0.35
	if got := f.ScoreMult(batt); math.Abs(got-want) > 1e-12 {
		t.Fatalf("battery score mult = %v, want %v", got, want)
	}
	f.BeginRound(2) // depleted
	if got := f.ScoreMult(batt); got != 0 {
		t.Fatalf("depleted score mult = %v, want 0", got)
	}
	// Out-of-fleet ids are mains-powered bystanders.
	if f.ScoreMult(99) != 1 || !f.Available(99) {
		t.Fatal("out-of-range id not treated as available mains")
	}
}

func TestFleetAccountDrainsTrainAndTx(t *testing.T) {
	f, err := NewFleet(batteryScenario(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	batt := 0
	if f.ClassName(0) == "mains" {
		batt = 1
	}
	f.BeginRound(0)
	before := f.ScoreMult(batt)
	// 5 s of training at 2 W plus 0.5 MB at 20 J/MB = 20 J = 0.2 capacity,
	// which the score multiplier (floor 0.25) sees as 0.75·0.2.
	f.Account(batt, 5, 500_000)
	if got := before - f.ScoreMult(batt); math.Abs(got-0.75*0.2) > 1e-12 {
		t.Fatalf("account lowered the score multiplier by %v, want 0.15 (0.2 of capacity)", got)
	}
}

func TestFleetRegionalOutage(t *testing.T) {
	sc := mustParse(t, `{
		"name": "out", "seed": 3, "round_seconds": 30,
		"classes": [{"name": "a", "weight": 1}],
		"churn": {"regions": ["r0", "r1"],
			"outages": [{"region": "r0", "start_s": 75, "duration_s": 60}]}
	}`)
	f, err := NewFleet(sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The outage [75, 135) overlaps rounds 2 ([60,90)), 3 ([90,120)) and
	// 4 ([120,150)) — including round 2, where it starts mid-round.
	for r := 0; r < 7; r++ {
		f.BeginRound(r)
		for i := 0; i < 8; i++ {
			inRegion := f.region[i] == 0
			wantDown := inRegion && r >= 2 && r <= 4
			if f.Available(i) == wantDown {
				t.Fatalf("round %d client %d (region %d): available = %v", r, i, f.region[i], f.Available(i))
			}
		}
	}
	// Both regions are populated (round-robin over a seeded shuffle).
	seen := map[int]int{}
	for i := 0; i < 8; i++ {
		seen[f.region[i]]++
	}
	if seen[0] != 4 || seen[1] != 4 {
		t.Fatalf("region split %v, want 4/4", seen)
	}
}

func TestFleetSnapshotRestoreRoundTrip(t *testing.T) {
	sc := batteryScenario(t)
	a, err := NewFleet(sc, 6)
	if err != nil {
		t.Fatal(err)
	}
	a.SetRoundWork(1e6, 64)
	for r := 0; r < 4; r++ {
		a.BeginRound(r)
		for i := 0; i < 6; i++ {
			if a.Available(i) {
				a.Account(i, a.TrainSeconds(i), 5000)
			}
		}
	}
	st := a.Snapshot()

	b, _ := NewFleet(sc, 6)
	b.SetRoundWork(1e6, 64)
	if err := b.Restore(st); err != nil {
		t.Fatal(err)
	}
	// Continuing both fleets produces identical logs.
	var la, lb bytes.Buffer
	for r := 4; r < 10; r++ {
		a.BeginRound(r)
		b.BeginRound(r)
		a.EmitRound(&la, r)
		b.EmitRound(&lb, r)
	}
	if !bytes.Equal(la.Bytes(), lb.Bytes()) {
		t.Fatalf("restored fleet diverged:\n%s\nvs\n%s", la.String(), lb.String())
	}
}

func TestFleetRestoreRejectsMismatch(t *testing.T) {
	sc := batteryScenario(t)
	f, _ := NewFleet(sc, 4)
	st := f.Snapshot()

	other := batteryScenario(t)
	other.Name = "other"
	g, _ := NewFleet(other, 4)
	if err := g.Restore(st); err == nil {
		t.Fatal("restore across scenario names accepted")
	}
	sized, _ := NewFleet(sc, 5)
	if err := sized.Restore(st); err == nil {
		t.Fatal("restore across fleet sizes accepted")
	}
	if err := f.Restore(nil); err == nil {
		t.Fatal("nil state accepted")
	}
}

func TestFleetScheduleMatchesLiveReplay(t *testing.T) {
	sc := batteryScenario(t)
	f, err := NewFleet(sc, 6)
	if err != nil {
		t.Fatal(err)
	}
	masks, err := f.Schedule(8, 5000)
	if err != nil {
		t.Fatal(err)
	}
	// Schedule must not have mutated f...
	if f.round != 0 || f.applied != 0 {
		t.Fatal("Schedule mutated the fleet")
	}
	// ...and must match a live fleet replaying the same accounting rule.
	live, _ := NewFleet(sc, 6)
	for r := 0; r < 8; r++ {
		live.BeginRound(r)
		for i := 0; i < 6; i++ {
			if live.Available(i) != masks[r][i] {
				t.Fatalf("round %d client %d: mask %v, live %v", r, i, masks[r][i], live.Available(i))
			}
			if live.Available(i) {
				live.Account(i, live.TrainSeconds(i), 5000)
			}
		}
	}
}

func TestFleetLinkBandwidth(t *testing.T) {
	sc := mustParse(t, `{
		"name": "bw", "seed": 1, "round_seconds": 10,
		"classes": [{"name": "slow", "weight": 1, "bandwidth_mult": 0.5}],
		"bandwidth": {"trace": [{"at_s": 20, "mult": 0.2}]}
	}`)
	f, err := NewFleet(sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	up, down := f.LinkBandwidth(0, 0, 1000, 2000)
	if up != 500 || down != 1000 {
		t.Fatalf("round 0 bandwidth %v/%v, want class mult only", up, down)
	}
	// Round 2 starts at t=20, where the trace multiplier 0.2 kicks in.
	up, _ = f.LinkBandwidth(0, 2, 1000, 2000)
	if math.Abs(up-100) > 1e-9 {
		t.Fatalf("round 2 up %v, want 100", up)
	}
}

func TestEmitRoundDeterministicAndSorted(t *testing.T) {
	f, err := NewFleet(batteryScenario(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	f.BeginRound(0)
	if err := f.EmitRound(&buf, 0); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.HasPrefix(line, `{"scenario":"batt","round":0,"available":[0,1,2,3]`) {
		t.Fatalf("unexpected round log: %s", line)
	}
	if !strings.HasSuffix(line, "\n") {
		t.Fatal("round log not newline-terminated")
	}
	// Nil writer is a no-op, for engines without a log sink.
	if err := f.EmitRound(nil, 0); err != nil {
		t.Fatal(err)
	}
}

func TestNewFleetRejectsBadInputs(t *testing.T) {
	sc := batteryScenario(t)
	if _, err := NewFleet(sc, 0); err == nil {
		t.Fatal("zero fleet size accepted")
	}
	bad := *sc
	bad.RoundSeconds = -1
	if _, err := NewFleet(&bad, 4); err == nil {
		t.Fatal("invalid config accepted")
	}
}
