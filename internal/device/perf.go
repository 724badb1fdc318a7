package device

import "sync"

// PerfMonitor is a perf(1)-style accumulator of named cycle counters. The
// overhead experiment records baseline training cycles and the extra
// cycles attributable to each AdaFL component, then reports relative
// expansion exactly as the paper does.
type PerfMonitor struct {
	mu       sync.Mutex
	counters map[string]float64
}

// NewPerfMonitor returns an empty monitor.
func NewPerfMonitor() *PerfMonitor {
	return &PerfMonitor{counters: make(map[string]float64)}
}

// Record adds cycles to the named counter.
func (m *PerfMonitor) Record(name string, cycles float64) {
	if cycles < 0 {
		panic("device: negative cycle count")
	}
	m.mu.Lock()
	m.counters[name] += cycles
	m.mu.Unlock()
}

// Get returns the named counter's value (0 if absent).
func (m *PerfMonitor) Get(name string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}
