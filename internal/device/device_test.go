package device

import (
	"math"
	"testing"
)

func TestCycleAndTimeConversions(t *testing.T) {
	p := Profile{Name: "t", ClockHz: 1e9, FLOPsPerCycle: 2, BackwardFactor: 2}
	if c := p.CyclesForFLOPs(4e9); c != 2e9 {
		t.Fatalf("cycles = %v", c)
	}
	if s := p.SecondsForCycles(2e9); s != 2 {
		t.Fatalf("seconds = %v", s)
	}
	if s := p.SecondsForFLOPs(4e9); s != 2 {
		t.Fatalf("direct seconds = %v", s)
	}
}

func TestTrainSecondsIncludesBackward(t *testing.T) {
	p := Profile{Name: "t", ClockHz: 1e9, FLOPsPerCycle: 1, BackwardFactor: 2}
	// 100 flops/sample forward, 10 samples, 3x total = 3000 flops = 3e-6 s.
	if s := p.TrainSeconds(100, 10); math.Abs(s-3e-6) > 1e-18 {
		t.Fatalf("train seconds = %v", s)
	}
	if c := p.TrainCycles(100, 10); c != 3000 {
		t.Fatalf("train cycles = %v", c)
	}
}

func TestDeviceOrdering(t *testing.T) {
	// Same workload must take longer on a Pi 3 than on the workstation.
	flops := 1e9
	if RaspberryPi3.SecondsForFLOPs(flops) <= Workstation.SecondsForFLOPs(flops) {
		t.Fatal("Pi not slower than workstation")
	}
}

func TestScaled(t *testing.T) {
	slow := RaspberryPi4.Scaled(1.0 / 3)
	base := RaspberryPi4.SecondsForFLOPs(1e9)
	if s := slow.SecondsForFLOPs(1e9); math.Abs(s-3*base) > 1e-9 {
		t.Fatalf("scaled time %v, want %v", s, 3*base)
	}
}

func TestScaledPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scaled(0) did not panic")
		}
	}()
	RaspberryPi4.Scaled(0)
}

func TestCostModelsScaleLinearly(t *testing.T) {
	if UtilityScoreFLOPs(2000) != 2*UtilityScoreFLOPs(1000) {
		t.Error("utility cost not linear")
	}
	if DGCEncodeFLOPs(2000) != 2*DGCEncodeFLOPs(1000) {
		t.Error("DGC cost not linear")
	}
	// DGC encode is more expensive than a utility score, as the paper
	// observes ("overhead added for gradient compression is larger").
	if DGCEncodeFLOPs(1000) <= UtilityScoreFLOPs(1000) {
		t.Error("DGC should cost more than utility score")
	}
}

func TestUtilityOverheadIsSmallFractionOfTraining(t *testing.T) {
	// The paper's headline: utility scoring adds ~0.05% cycles relative to
	// training. With the paper CNN (~2.3 MFLOP/sample forward) and a
	// realistic local workload, our model must land well under 1%.
	const cnnFLOPs = 2.3e6
	p := RaspberryPi4
	trainingCycles := p.TrainCycles(cnnFLOPs, 500)
	utilityCycles := p.CyclesForFLOPs(UtilityScoreFLOPs(431080))
	frac := utilityCycles / trainingCycles
	if frac > 0.01 {
		t.Fatalf("utility overhead fraction %v too large", frac)
	}
}

func TestPerfMonitorBasics(t *testing.T) {
	m := NewPerfMonitor()
	m.Record("train", 1000)
	m.Record("train", 500)
	m.Record("utility", 3)
	if m.Get("train") != 1500 {
		t.Fatalf("train counter %v", m.Get("train"))
	}
	if m.Get("utility") != 3 || m.Get("missing") != 0 {
		t.Fatalf("utility counter %v, missing counter %v", m.Get("utility"), m.Get("missing"))
	}
}

func TestPerfMonitorNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative record did not panic")
		}
	}()
	NewPerfMonitor().Record("x", -1)
}

func TestPerfMonitorConcurrentRecord(t *testing.T) {
	m := NewPerfMonitor()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				m.Record("c", 1)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if m.Get("c") != 8000 {
		t.Fatalf("concurrent count %v, want 8000", m.Get("c"))
	}
}
