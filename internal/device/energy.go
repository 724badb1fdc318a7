package device

import (
	"fmt"
	"math"
)

// Battery models a client device's energy store for the scenario engine.
// All quantities are joules and watts. A zero CapacityJ means the device
// is mains-powered: it never drains and never depletes.
//
// Drains are additive and clamp at zero; Depleted reports LevelJ == 0 so
// a drain that lands exactly on the remaining charge (depletion exactly
// at a round boundary) counts as depleted.
type Battery struct {
	// CapacityJ is the full charge in joules (0 = mains powered).
	CapacityJ float64
	// LevelJ is the current charge, in [0, CapacityJ].
	LevelJ float64
	// TrainW is the power draw during local training.
	TrainW float64
	// IdleW is the baseline draw while powered on but not training.
	IdleW float64
	// TxJPerByte is the transmit energy per uplink byte.
	TxJPerByte float64
}

// Mains reports whether the device is mains-powered (never depletes).
func (b Battery) Mains() bool { return b.CapacityJ == 0 }

// Level returns the state of charge as a fraction in [0, 1]; mains
// devices report 1.
func (b Battery) Level() float64 {
	if b.Mains() {
		return 1
	}
	return b.LevelJ / b.CapacityJ
}

// Depleted reports whether the battery has fully drained. Mains devices
// never deplete.
func (b Battery) Depleted() bool { return !b.Mains() && b.LevelJ <= 0 }

// drain removes joules from the battery, clamping at zero. Mains devices
// ignore drains.
func (b *Battery) drain(joules float64) {
	if b.Mains() || joules <= 0 {
		return
	}
	b.LevelJ -= joules
	if b.LevelJ < 0 {
		b.LevelJ = 0
	}
}

// DrainTrain accounts the given seconds of local training.
func (b *Battery) DrainTrain(seconds float64) { b.drain(b.TrainW * seconds) }

// DrainIdle accounts the given seconds of baseline draw.
func (b *Battery) DrainIdle(seconds float64) { b.drain(b.IdleW * seconds) }

// DrainTx accounts the transmission of the given number of uplink bytes.
func (b *Battery) DrainTx(bytes int64) { b.drain(b.TxJPerByte * float64(bytes)) }

// Charge adds joules to the battery, clamping at capacity. Mains devices
// ignore charges.
func (b *Battery) Charge(joules float64) {
	if b.Mains() || joules <= 0 {
		return
	}
	b.LevelJ += joules
	if b.LevelJ > b.CapacityJ {
		b.LevelJ = b.CapacityJ
	}
}

// RechargeWindow is a recurring plug-in interval: the device charges at
// Watts during [StartS, EndS) of every PeriodS-second cycle (the diurnal
// overnight-charging wave). PeriodS 0 means a one-shot window.
type RechargeWindow struct {
	StartS, EndS float64
	PeriodS      float64
	Watts        float64
}

// Validate reports whether the window is well-formed.
func (w RechargeWindow) Validate() error {
	for _, v := range []float64{w.StartS, w.EndS, w.PeriodS, w.Watts} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("device: invalid recharge window %+v", w)
		}
	}
	if w.EndS <= w.StartS {
		return fmt.Errorf("device: recharge window end %v not after start %v", w.EndS, w.StartS)
	}
	if w.PeriodS > 0 && w.EndS-w.StartS > w.PeriodS {
		return fmt.Errorf("device: recharge window longer than its period %+v", w)
	}
	return nil
}

// EnergyOver returns the joules delivered over simulated time [t0, t1),
// in closed form (no per-second stepping), so scenario resume can
// integrate arbitrary gaps exactly.
func (w RechargeWindow) EnergyOver(t0, t1 float64) float64 {
	if t1 <= t0 || w.Watts <= 0 {
		return 0
	}
	overlap := func(a0, a1 float64) float64 {
		lo := math.Max(a0, t0)
		hi := math.Min(a1, t1)
		if hi > lo {
			return hi - lo
		}
		return 0
	}
	if w.PeriodS <= 0 {
		return w.Watts * overlap(w.StartS, w.EndS)
	}
	// Sum the overlap of every periodic occurrence intersecting [t0, t1).
	k0 := math.Floor((t0 - w.EndS) / w.PeriodS)
	k1 := math.Ceil((t1 - w.StartS) / w.PeriodS)
	var secs float64
	for k := k0; k <= k1; k++ {
		secs += overlap(w.StartS+k*w.PeriodS, w.EndS+k*w.PeriodS)
	}
	return w.Watts * secs
}
