// Package netsim is a discrete-event network simulator standing in for the
// paper's ns-3 (ns3-fl) setup. It models per-client uplink/downlink
// bandwidth, propagation latency, jitter, probabilistic loss and
// time-varying bandwidth traces, and exposes exactly what the FL engine
// needs: the completion time (or failure) of a transfer of a given size
// starting at a given simulated time.
package netsim

import (
	"fmt"

	"adafl/internal/stats"
)

// Link describes one client's connection to the server.
type Link struct {
	// UpBps and DownBps are uplink/downlink bandwidths in bytes per second.
	UpBps, DownBps float64
	// LatencyS is the one-way propagation delay in seconds.
	LatencyS float64
	// JitterS is the standard deviation of additional normal-distributed
	// delay (truncated at zero) applied per transfer.
	JitterS float64
	// LossProb is the probability that a transfer fails entirely and must
	// be treated as dropped by the protocol layer.
	LossProb float64
	// Trace optionally modulates bandwidth over time; nil means static.
	Trace *Trace
}

// Validate reports whether the link parameters are physically meaningful.
func (l Link) Validate() error {
	if l.UpBps <= 0 || l.DownBps <= 0 {
		return fmt.Errorf("netsim: non-positive bandwidth (up=%v down=%v)", l.UpBps, l.DownBps)
	}
	if l.LatencyS < 0 || l.JitterS < 0 {
		return fmt.Errorf("netsim: negative latency/jitter")
	}
	if l.LossProb < 0 || l.LossProb >= 1 {
		return fmt.Errorf("netsim: loss probability %v out of [0,1)", l.LossProb)
	}
	return nil
}

// Direction selects uplink or downlink.
type Direction int

// Transfer directions.
const (
	Uplink Direction = iota
	Downlink
)

func (d Direction) String() string {
	if d == Uplink {
		return "uplink"
	}
	return "downlink"
}

// bandwidthAt returns the effective bandwidth for a transfer starting at
// time now, applying the trace multiplier if present.
func (l Link) bandwidthAt(d Direction, now float64) float64 {
	base := l.UpBps
	if d == Downlink {
		base = l.DownBps
	}
	if l.Trace != nil {
		base *= l.Trace.MultiplierAt(now)
	}
	return base
}

// TransferTime returns the simulated duration of moving size bytes in
// direction d starting at now, and whether the transfer was lost. rng
// drives jitter and loss; pass a client-specific stream for reproducibility.
func (l Link) TransferTime(d Direction, size int, now float64, rng *stats.RNG) (dur float64, lost bool) {
	if size < 0 {
		panic("netsim: negative transfer size")
	}
	if rng != nil && l.LossProb > 0 && rng.Float64() < l.LossProb {
		return 0, true
	}
	bw := l.bandwidthAt(d, now)
	dur = l.LatencyS + float64(size)/bw
	if rng != nil && l.JitterS > 0 {
		j := rng.Norm() * l.JitterS
		if j > 0 {
			dur += j
		}
	}
	return dur, false
}

// Bandwidths returns the current (up, down) bandwidths at time now, which
// the AdaFL utility score consumes.
func (l Link) Bandwidths(now float64) (up, down float64) {
	return l.bandwidthAt(Uplink, now), l.bandwidthAt(Downlink, now)
}

// Common link presets (bytes per second) modelled after the paper's
// embedded-device setting.
var (
	// EthernetLink approximates a wired 100 Mbit/s connection.
	EthernetLink = Link{UpBps: 12.5e6, DownBps: 12.5e6, LatencyS: 0.002}
	// WiFiLink approximates a mid-quality 802.11 connection.
	WiFiLink = Link{UpBps: 2.5e6, DownBps: 5e6, LatencyS: 0.01, JitterS: 0.005}
	// LTELink approximates a cellular uplink-constrained connection.
	LTELink = Link{UpBps: 0.625e6, DownBps: 2.5e6, LatencyS: 0.05, JitterS: 0.02}
	// ConstrainedLink approximates the degraded conditions of the paper's
	// empirical study (severely limited uplink, lossy).
	ConstrainedLink = Link{UpBps: 0.125e6, DownBps: 0.5e6, LatencyS: 0.1, JitterS: 0.05, LossProb: 0.05}
)

// PresetNames lists the names Preset takes, as usage text.
const PresetNames = "ethernet, wifi, lte or constrained"

// Preset returns the link preset of the given name, one of PresetNames.
// flsim's -link and flclient's -link both name a link through it.
func Preset(name string) (Link, error) {
	switch name {
	case "ethernet":
		return EthernetLink, nil
	case "wifi":
		return WiFiLink, nil
	case "lte":
		return LTELink, nil
	case "constrained":
		return ConstrainedLink, nil
	}
	return Link{}, fmt.Errorf("netsim: unknown link preset %q (%s)", name, PresetNames)
}
