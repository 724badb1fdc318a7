package edge

import (
	"strconv"

	"adafl/internal/obs"
)

// Metric names follow the repo convention (adafl_ prefix, labels embedded
// in the name as {k="v"} blocks — obs.Registry treats the whole string as
// the instrument key and WritePrometheus emits it verbatim, which is
// exactly the Prometheus exposition format for a labelled series).

type edgeMetrics struct {
	clients     *obs.Gauge   // connected clients right now
	folded      *obs.Counter // client updates folded into partials
	partials    *obs.Counter // partials shipped upstream
	quarantines *obs.Counter // updates rejected by the screen
	heartbeats  *obs.Counter // pings sent to the root: liveness ticks and count pushes
	hbErrors    *obs.Counter // pings that failed, each closing the root link
}

func newEdgeMetrics(r *obs.Registry, id int) edgeMetrics {
	l := label(id)
	return edgeMetrics{
		clients:     r.Gauge("adafl_edge_clients" + l),
		folded:      r.Counter("adafl_edge_folded_total" + l),
		partials:    r.Counter("adafl_edge_partials_total" + l),
		quarantines: r.Counter("adafl_edge_quarantines_total" + l),
		heartbeats:  r.Counter("adafl_edge_heartbeats_total" + l),
		hbErrors:    r.Counter("adafl_edge_heartbeat_errors_total" + l),
	}
}

type rootMetrics struct {
	edgesLive *obs.Counter // edge_up transitions
	edgesDown *obs.Counter // edge_down transitions
	reroutes  *obs.Counter // reroute plans executed
	orphans   *obs.Counter // clients moved by reroutes
	rounds    *obs.Counter // rounds completed
}

func newRootMetrics(r *obs.Registry) rootMetrics {
	return rootMetrics{
		edgesLive: r.Counter("adafl_root_edge_up_total"),
		edgesDown: r.Counter("adafl_root_edge_down_total"),
		reroutes:  r.Counter("adafl_root_reroutes_total"),
		orphans:   r.Counter("adafl_root_rerouted_clients_total"),
		rounds:    r.Counter("adafl_root_rounds_total"),
	}
}

func label(id int) string { return `{edge="` + strconv.Itoa(id) + `"}` }
