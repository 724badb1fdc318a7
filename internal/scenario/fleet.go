package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"adafl/internal/device"
	"adafl/internal/netsim"
	"adafl/internal/obs"
	"adafl/internal/stats"
)

// Fleet is a scenario instantiated over n clients: the deterministic
// runtime state the engines consult each round. All randomness is drawn
// up-front from the scenario seed in a fixed order at construction; from
// then on availability, battery levels and bandwidths are pure functions
// of (round index, accounted drains), so two fleets built from the same
// config replay bit-identically, and a fleet restored from a checkpoint
// rejoins the schedule exactly.
//
// Fleet is not safe for concurrent use; the engines drive it from the
// round loop (BeginRound / Available / Account / EmitRound in order).
type Fleet struct {
	sc *Scenario
	n  int

	class    []int     // client -> class index
	quantile []float64 // client -> diurnal availability quantile in [0,1)
	phase    []float64 // client -> diurnal phase offset (seconds)
	region   []int     // client -> region index (-1 = none)
	batt     []device.Battery
	down     []bool // battery-depletion latch (hysteresis via RejoinFrac)

	trace *netsim.Trace // shared bandwidth trace (nil = none)

	// baseUp/baseDown remember the pre-scenario link speeds captured by
	// ConfigureFederation so ApplyRoundLinks can re-derive each round's
	// bandwidth from the round clock instead of compounding multipliers.
	baseUp, baseDown []float64

	round   int     // current round (set by BeginRound)
	applied float64 // scenario time through which idle/recharge is integrated

	depletions int64 // cumulative depletion events
	offline    int64 // cumulative (client, round) unavailability count

	flopsPerSample float64
	samples        int
}

// NewFleet instantiates the scenario over n clients.
func NewFleet(sc *Scenario, n int) (*Fleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("scenario: fleet size %d", n)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	f := &Fleet{
		sc:       sc,
		n:        n,
		class:    make([]int, n),
		quantile: make([]float64, n),
		phase:    make([]float64, n),
		region:   make([]int, n),
		batt:     make([]device.Battery, n),
		down:     make([]bool, n),
	}

	// One RNG, fixed draw order: class shuffle, quantiles, phases,
	// region shuffle. Changing this order changes every schedule, so it
	// is part of the determinism contract (DESIGN.md §Scenario engine).
	rng := stats.NewRNG(sc.Seed)

	// Largest-remainder class allocation, then a seeded shuffle so class
	// membership isn't id-ordered.
	counts := classCounts(sc.Classes, n)
	idx := 0
	for ci, cnt := range counts {
		for k := 0; k < cnt; k++ {
			f.class[idx] = ci
			idx++
		}
	}
	rng.Shuffle(n, func(i, j int) { f.class[i], f.class[j] = f.class[j], f.class[i] })

	var spread float64
	if sc.Churn != nil && sc.Churn.Diurnal != nil {
		spread = sc.Churn.Diurnal.PhaseSpreadS
	}
	for i := 0; i < n; i++ {
		f.quantile[i] = rng.Float64()
		f.phase[i] = (rng.Float64()*2 - 1) * spread
	}

	var regions []string
	if sc.Churn != nil {
		regions = sc.Churn.Regions
	}
	if len(regions) == 0 {
		for i := range f.region {
			f.region[i] = -1
		}
	} else {
		perm := rng.Perm(n)
		for k, id := range perm {
			f.region[id] = k % len(regions)
		}
	}

	for i := 0; i < n; i++ {
		if spec := sc.Classes[f.class[i]].Battery; spec != nil {
			f.batt[i] = device.Battery{
				CapacityJ:  spec.CapacityJ,
				LevelJ:     spec.CapacityJ * spec.InitialFrac,
				TrainW:     spec.TrainWatts,
				IdleW:      spec.IdleWatts,
				TxJPerByte: spec.TxJoulesPerMB / 1e6,
			}
			f.down[i] = f.batt[i].Depleted()
		}
	}

	if bw := sc.Bandwidth; bw != nil {
		if len(bw.Trace) > 0 {
			steps := make([]netsim.TraceStep, len(bw.Trace))
			for i, s := range bw.Trace {
				steps[i] = netsim.TraceStep{At: s.AtS, Multiplier: s.Mult}
			}
			f.trace = netsim.NewTrace(steps...)
		} else if d := bw.Diurnal; d != nil {
			f.trace = netsim.DiurnalTrace(d.PeriodS, d.MinMult, d.MaxMult, d.StepS, d.HorizonS)
		}
	}
	return f, nil
}

// classCounts splits n clients over the classes proportionally to weight
// using largest remainders (deterministic, exact total).
func classCounts(classes []Class, n int) []int {
	total := 0.0
	for _, c := range classes {
		total += c.Weight
	}
	counts := make([]int, len(classes))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(classes))
	assigned := 0
	for i, c := range classes {
		exact := float64(n) * c.Weight / total
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for k := 0; assigned < n; k, assigned = (k+1)%len(rems), assigned+1 {
		counts[rems[k].idx]++
	}
	return counts
}

// SetRoundWork tells the energy model what one round of local training
// costs: the model's forward FLOPs per sample and the number of samples
// trained per round. Train drains use each class's device profile over
// this workload.
func (f *Fleet) SetRoundWork(flopsPerSample float64, samples int) {
	f.flopsPerSample = flopsPerSample
	f.samples = samples
}

// Profile returns client id's device profile (class profile scaled by
// compute_scale). Ids outside the fleet get the default profile.
func (f *Fleet) Profile(id int) device.Profile {
	if id < 0 || id >= f.n {
		return profiles[defaultProfile]
	}
	c := f.sc.Classes[f.class[id]]
	return profiles[c.Profile].Scaled(c.ComputeScale)
}

// ClassName returns client id's class name ("" outside the fleet).
func (f *Fleet) ClassName(id int) string {
	if id < 0 || id >= f.n {
		return ""
	}
	return f.sc.Classes[f.class[id]].Name
}

// TrainSeconds returns the wall-time of one round of local training on
// client id's device under the workload set by SetRoundWork.
func (f *Fleet) TrainSeconds(id int) float64 {
	if f.flopsPerSample == 0 || f.samples == 0 {
		return 0
	}
	return f.Profile(id).TrainSeconds(f.flopsPerSample, f.samples)
}

// BeginRound advances the scenario clock to the start of round r,
// integrating idle drain and recharge windows in closed form over the
// elapsed gap (which makes resume-after-kill exact: the integration only
// depends on the interval, not on how many processes observed it), then
// re-evaluates each battery client's depletion latch.
func (f *Fleet) BeginRound(r int) {
	f.round = r
	now := float64(r) * f.sc.RoundSeconds
	if now > f.applied {
		for i := range f.batt {
			b := &f.batt[i]
			if b.Mains() {
				continue
			}
			b.DrainIdle(now - f.applied)
			if spec := f.sc.Classes[f.class[i]].Battery; spec != nil {
				for _, rw := range spec.Recharge {
					b.Charge(rw.window().EnergyOver(f.applied, now))
				}
			}
		}
		f.applied = now
	}
	for i := range f.batt {
		b := &f.batt[i]
		if b.Mains() {
			continue
		}
		if !f.down[i] && b.Depleted() {
			f.down[i] = true
			f.depletions++
		} else if f.down[i] && b.Level() >= f.sc.RejoinFrac {
			f.down[i] = false
		}
	}
}

// now returns the scenario time at the start of the current round.
func (f *Fleet) now() float64 { return float64(f.round) * f.sc.RoundSeconds }

// Available reports whether client id is online in the current round
// (set by BeginRound): not battery-down, not inside a regional outage,
// and inside its diurnal availability band. Ids outside the fleet are
// always available (mains-powered bystanders).
func (f *Fleet) Available(id int) bool {
	if id < 0 || id >= f.n {
		return true
	}
	if f.down[id] {
		return false
	}
	if f.inOutage(id) {
		return false
	}
	return f.diurnalUp(id)
}

// inOutage reports whether id's region has an outage overlapping the
// current round's window [r·T, (r+1)·T) — an outage that begins
// mid-round takes the region out for that whole round.
func (f *Fleet) inOutage(id int) bool {
	if f.region[id] < 0 || f.sc.Churn == nil {
		return false
	}
	t0 := f.now()
	t1 := t0 + f.sc.RoundSeconds
	name := f.sc.Churn.Regions[f.region[id]]
	for _, o := range f.sc.Churn.Outages {
		if o.Region == name && o.StartS < t1 && o.StartS+o.DurationS > t0 {
			return true
		}
	}
	return false
}

// diurnalUp evaluates the availability wave for id at the current round
// start: the fleet-wide available fraction p(t) follows a raised cosine
// between max_frac and min_frac, and id is up iff its fixed quantile
// falls below p(t + phase_id).
func (f *Fleet) diurnalUp(id int) bool {
	if f.sc.Churn == nil || f.sc.Churn.Diurnal == nil {
		return true
	}
	d := f.sc.Churn.Diurnal
	t := f.now() + f.phase[id]
	p := d.MinFrac + (d.MaxFrac-d.MinFrac)*(1+math.Cos(2*math.Pi*t/d.PeriodS))/2
	return f.quantile[id] < p
}

// ScoreMult returns the utility-score multiplier for client id: 1 for
// mains clients, scaled linearly from BatteryScoreFloor (empty) to 1
// (full) for battery clients, 0 when depleted — the scenario's
// "smart sampling" bias toward high-battery clients.
func (f *Fleet) ScoreMult(id int) float64 {
	if id < 0 || id >= f.n {
		return 1
	}
	b := f.batt[id]
	if b.Mains() {
		return 1
	}
	if f.down[id] || b.Depleted() {
		return 0
	}
	floor := f.sc.BatteryScoreFloor
	return floor + (1-floor)*b.Level()
}

// LinkBandwidth maps a base link bandwidth through client id's class
// multiplier and the scenario bandwidth trace at the given round. It is
// a pure function (no state change), so server and clients can evaluate
// it independently and agree.
func (f *Fleet) LinkBandwidth(id, round int, baseUp, baseDown float64) (up, down float64) {
	mult := 1.0
	if id >= 0 && id < f.n {
		mult = f.sc.Classes[f.class[id]].BandwidthMult
	}
	if f.trace != nil {
		mult *= f.trace.MultiplierAt(float64(round) * f.sc.RoundSeconds)
	}
	return baseUp * mult, baseDown * mult
}

// ApplyRoundLinks re-derives every configured link's bandwidth for the
// given round through LinkBandwidth, so simulated transfer durations
// follow the same round-clock trace the server-side negotiator and any
// out-of-band observer evaluate. No-op until ConfigureFederation has
// captured the base link speeds.
func (f *Fleet) ApplyRoundLinks(net *netsim.Network, round int) {
	if f.baseUp == nil {
		return
	}
	for i := 0; i < len(f.baseUp); i++ {
		link := net.Link(i)
		link.UpBps, link.DownBps = f.LinkBandwidth(i, round, f.baseUp[i], f.baseDown[i])
		net.SetLink(i, link)
	}
}

// Account charges client id's battery for one round of work: trainSec
// seconds of training plus txBytes of uplink transmission. Call it once
// per delivered update; unavailable clients only pay idle drain.
func (f *Fleet) Account(id int, trainSec float64, txBytes int64) {
	if id < 0 || id >= f.n {
		return
	}
	b := &f.batt[id]
	b.DrainTrain(trainSec)
	b.DrainTx(txBytes)
}

// State is the checkpointable scenario state: everything that is not a
// pure function of (config, seed, round). It joins the session snapshot
// so -resume replays mid-scenario.
type State struct {
	Name       string
	Seed       uint64
	Clients    int
	Round      int
	AppliedS   float64
	LevelsJ    []float64
	Down       []bool
	Depletions int64
	Offline    int64
}

// Snapshot captures the fleet's mutable state for the session checkpoint.
func (f *Fleet) Snapshot() *State {
	st := &State{
		Name:       f.sc.Name,
		Seed:       f.sc.Seed,
		Clients:    f.n,
		Round:      f.round,
		AppliedS:   f.applied,
		LevelsJ:    make([]float64, f.n),
		Down:       append([]bool(nil), f.down...),
		Depletions: f.depletions,
		Offline:    f.offline,
	}
	for i, b := range f.batt {
		st.LevelsJ[i] = b.LevelJ
	}
	return st
}

// Restore rejoins a checkpointed schedule. The snapshot must come from
// the same scenario (name, seed) over the same fleet size; anything else
// is a hard error, matching the checkpoint layer's mismatch policy.
func (f *Fleet) Restore(st *State) error {
	if st == nil {
		return fmt.Errorf("scenario: nil state")
	}
	if st.Name != f.sc.Name || st.Seed != f.sc.Seed {
		return fmt.Errorf("scenario: snapshot from scenario %q seed %d, running %q seed %d",
			st.Name, st.Seed, f.sc.Name, f.sc.Seed)
	}
	if st.Clients != f.n || len(st.LevelsJ) != f.n || len(st.Down) != f.n {
		return fmt.Errorf("scenario: snapshot fleet size %d, running %d", st.Clients, f.n)
	}
	f.round = st.Round
	f.applied = st.AppliedS
	for i := range f.batt {
		f.batt[i].LevelJ = st.LevelsJ[i]
	}
	copy(f.down, st.Down)
	f.depletions = st.Depletions
	f.offline = st.Offline
	return nil
}

// roundLog is the deterministic per-round record EmitRound writes: it
// depends only on (config, seed, round, accounted drains), never on
// wall-clock time, so two runs of the same scenario produce byte-equal
// logs — the observable the golden replay tests pin.
type roundLog struct {
	Scenario     string   `json:"scenario"`
	Round        int      `json:"round"`
	Available    []int    `json:"available"`
	Offline      []int    `json:"offline,omitempty"`
	Depleted     []int    `json:"depleted,omitempty"`
	Outages      []string `json:"outages,omitempty"`
	BatteryMilli []int    `json:"battery_milli,omitempty"`
}

// EmitRound writes one JSONL record describing the current round's
// schedule to w (no-op when w is nil) and bumps the offline counters.
// Battery levels are reported in thousandths to keep the encoding
// platform-stable.
func (f *Fleet) EmitRound(w io.Writer, round int) error {
	rec := roundLog{Scenario: f.sc.Name, Round: round}
	hasBattery := false
	for i := 0; i < f.n; i++ {
		if f.Available(i) {
			rec.Available = append(rec.Available, i)
		} else {
			rec.Offline = append(rec.Offline, i)
			f.offline++
		}
		if f.down[i] {
			rec.Depleted = append(rec.Depleted, i)
		}
		if !f.batt[i].Mains() {
			hasBattery = true
		}
	}
	if f.sc.Churn != nil {
		t0 := f.now()
		t1 := t0 + f.sc.RoundSeconds
		for _, o := range f.sc.Churn.Outages {
			if o.StartS < t1 && o.StartS+o.DurationS > t0 {
				rec.Outages = append(rec.Outages, o.Region)
			}
		}
	}
	if hasBattery {
		rec.BatteryMilli = make([]int, f.n)
		for i := range rec.BatteryMilli {
			rec.BatteryMilli[i] = int(math.Round(f.batt[i].Level() * 1000))
		}
	}
	if w == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	_, err = w.Write(line)
	return err
}

// RecordMetrics publishes scenario-labelled churn/energy gauges and
// counters to the registry (nil-safe, like all obs instruments).
func (f *Fleet) RecordMetrics(reg *obs.Registry) {
	label := fmt.Sprintf(`{scenario=%q}`, f.sc.Name)
	avail := 0
	var levelSum float64
	battery := 0
	for i := 0; i < f.n; i++ {
		if f.Available(i) {
			avail++
		}
		if !f.batt[i].Mains() {
			battery++
			levelSum += f.batt[i].Level()
		}
	}
	reg.Gauge("adafl_scenario_available" + label).Set(float64(avail))
	reg.Gauge("adafl_scenario_offline_total" + label).Set(float64(f.offline))
	reg.Gauge("adafl_scenario_depletions_total" + label).Set(float64(f.depletions))
	if battery > 0 {
		reg.Gauge("adafl_scenario_battery_level_mean" + label).Set(levelSum / float64(battery))
	}
}

// Schedule simulates rounds of the scenario under full participation
// (every available client trains and ships estBytes each round) on a
// fresh copy, returning the per-round availability masks. Both halves of
// a split socket fleet derive the same schedule from the same file, so
// the server knows how many updates to expect and each client knows when
// to stay silent.
func (f *Fleet) Schedule(rounds int, estBytes int64) ([][]bool, error) {
	sim, err := NewFleet(f.sc, f.n)
	if err != nil {
		return nil, err
	}
	sim.SetRoundWork(f.flopsPerSample, f.samples)
	masks := make([][]bool, rounds)
	for r := 0; r < rounds; r++ {
		sim.BeginRound(r)
		mask := make([]bool, f.n)
		for i := 0; i < f.n; i++ {
			if sim.Available(i) {
				mask[i] = true
				sim.Account(i, sim.TrainSeconds(i), estBytes)
			}
		}
		masks[r] = mask
	}
	return masks, nil
}
