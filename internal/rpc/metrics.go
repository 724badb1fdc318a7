package rpc

import "adafl/internal/obs"

// Metric names exposed by the server and client. They are resolved once
// at construction; with a nil registry every instrument is nil and each
// record call is a no-op (see internal/obs), so the round engine pays
// nothing when observability is off.
//
// The full catalogue, with types and label conventions, is documented in
// DESIGN.md §Observability. adafl_registrations_total,
// adafl_reconnects_total and adafl_connections belong to the Roster
// (Roster.Instrument), the three checkpoint series to checkpoint.Reporter,
// and the selection series (adafl_utility_score, adafl_compression_ratio,
// adafl_negotiated_ratio, adafl_codec_assigned_total) to core.SyncPlanner.
type serverMetrics struct {
	rounds      *obs.Counter   // adafl_rounds_total
	evictions   *obs.Counter   // adafl_evictions_total
	quarantines *obs.Counter   // adafl_quarantines_total
	bytesUp     *obs.Counter   // adafl_bytes_total{dir="up"}
	bytesDown   *obs.Counter   // adafl_bytes_total{dir="down"}
	roundSec    *obs.Histogram // adafl_round_seconds
	scoreSec    *obs.Histogram // adafl_phase_seconds{phase="score"}
	updateSec   *obs.Histogram // adafl_phase_seconds{phase="update"}
	updRatios   *obs.Histogram // adafl_update_compression_ratio (achieved, from received wire bytes)
	accuracy    *obs.Gauge     // adafl_round_accuracy (last evaluated)
	clients     *obs.Gauge     // adafl_round_clients
	selected    *obs.Gauge     // adafl_round_selected
	received    *obs.Gauge     // adafl_round_received
	wireBinary  *obs.Counter   // adafl_wire_messages_total{codec="binary"}
}

// newServerMetrics resolves the server instrument set.
func newServerMetrics(r *obs.Registry) serverMetrics {
	return serverMetrics{
		rounds:      r.Counter("adafl_rounds_total"),
		evictions:   r.Counter("adafl_evictions_total"),
		quarantines: r.Counter("adafl_quarantines_total"),
		bytesUp:     r.Counter(`adafl_bytes_total{dir="up"}`),
		bytesDown:   r.Counter(`adafl_bytes_total{dir="down"}`),
		roundSec:    r.Histogram("adafl_round_seconds", obs.LatencyBuckets),
		scoreSec:    r.Histogram(`adafl_phase_seconds{phase="score"}`, obs.LatencyBuckets),
		updateSec:   r.Histogram(`adafl_phase_seconds{phase="update"}`, obs.LatencyBuckets),
		updRatios:   r.Histogram("adafl_update_compression_ratio", obs.RatioBuckets),
		accuracy:    r.Gauge("adafl_round_accuracy"),
		clients:     r.Gauge("adafl_round_clients"),
		selected:    r.Gauge("adafl_round_selected"),
		received:    r.Gauge("adafl_round_received"),
		wireBinary:  r.Counter(`adafl_wire_messages_total{codec="binary"}`),
	}
}

// clientMetrics is the client-process instrument set.
type clientMetrics struct {
	redials    *obs.Counter   // adafl_client_redials_total
	backoffSec *obs.Histogram // adafl_client_backoff_seconds
	bytesSent  *obs.Counter   // adafl_client_bytes_sent_total
	uploads    *obs.Counter   // adafl_client_uploads_total
	withheld   *obs.Counter   // adafl_client_withheld_total
	trainSec   *obs.Histogram // adafl_client_train_seconds
}

func newClientMetrics(r *obs.Registry) clientMetrics {
	return clientMetrics{
		redials:    r.Counter("adafl_client_redials_total"),
		backoffSec: r.Histogram("adafl_client_backoff_seconds", obs.LatencyBuckets),
		bytesSent:  r.Counter("adafl_client_bytes_sent_total"),
		uploads:    r.Counter("adafl_client_uploads_total"),
		withheld:   r.Counter("adafl_client_withheld_total"),
		trainSec:   r.Histogram("adafl_client_train_seconds", obs.LatencyBuckets),
	}
}
