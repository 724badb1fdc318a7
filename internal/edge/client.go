package edge

import (
	"fmt"
	"sync"
	"time"

	"adafl/internal/compress"
	"adafl/internal/rpc"
	"adafl/internal/stats"
)

// ClientsConfig configures a fleet of edge-federated clients driven by
// RunClients: each dials the root's bootstrap address, learns its edge
// from the MsgReroute reply, and trains against that edge with the fleet
// hot-path protocol. When the edge dies the client falls back to the
// bootstrap with full-jitter backoff and learns its replacement — the
// whole reroute story from the client's side is "redial the bootstrap".
type ClientsConfig struct {
	// Bootstrap is the root's client-facing address.
	Bootstrap string
	// Lo/Hi bound the client ID range [Lo, Hi).
	Lo, Hi int
	// Dim/Nnz/Seed parameterise the deterministic synthetic updates
	// (rpc.FleetUpdate), matching the flat fleet harness.
	Dim, Nnz int
	Seed     uint64
	// Wire accepts only "" or rpc.WireBinary and selects nothing (see
	// rpc.WireBinary).
	Wire string
	// MaxRetries bounds consecutive failed bootstrap cycles per client
	// (0 = 25); the budget resets whenever a round completes.
	MaxRetries int
	// RetryBackoff is the initial redial window (full jitter; 0 = 50ms).
	RetryBackoff time.Duration
	// DialTimeout bounds each dial (0 = 5s).
	DialTimeout time.Duration
	// Logf is the optional debug sink.
	Logf func(format string, args ...interface{})
}

// RunClients runs clients [Lo, Hi) to session end and returns the first
// per-client failure, if any. It blocks until every client is done.
func RunClients(cfg ClientsConfig) error {
	if cfg.Hi <= cfg.Lo {
		return fmt.Errorf("edge: empty client range [%d, %d)", cfg.Lo, cfg.Hi)
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 25
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Hi-cfg.Lo)
	for id := cfg.Lo; id < cfg.Hi; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := runClient(cfg, id); err != nil {
				errs <- fmt.Errorf("client %d: %w", id, err)
			}
		}(id)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

func runClient(cfg ClientsConfig, id int) error {
	upd := &compress.Sparse{}
	err := rpc.Redial(cfg.MaxRetries, cfg.RetryBackoff,
		stats.NewRNG(cfg.Seed^uint64(id)*0x94d049bb133111eb).Split(),
		func() (bool, bool, error) { return runClientOnce(cfg, id, upd) }, nil)
	if err != nil {
		return fmt.Errorf("retries exhausted: %w", err)
	}
	return nil
}

// runClientOnce runs one bootstrap cycle: learn the edge, train on it
// until shutdown (done) or a link error. progressed reports whether at
// least one round completed, which refills the caller's retry budget —
// an orphan that redials a few times while the root notices its edge
// died must not burn the budget a genuine outage needs.
func runClientOnce(cfg ClientsConfig, id int, upd *compress.Sparse) (done, progressed bool, err error) {
	boot, err := rpc.Dial("tcp", cfg.Bootstrap, cfg.DialTimeout)
	if err != nil {
		return false, false, err
	}
	if err := boot.Send(&rpc.Envelope{Type: rpc.MsgHello, ClientID: id}); err != nil {
		boot.Close()
		return false, false, err
	}
	env, err := boot.Recv()
	boot.Close()
	if err != nil {
		return false, false, err
	}
	switch env.Type {
	case rpc.MsgReroute:
		// fall through to the edge dial below
	case rpc.MsgShutdown:
		return true, false, nil
	default:
		return false, false, fmt.Errorf("bootstrap: unexpected %v", env.Type)
	}
	addr := env.Info

	conn, err := rpc.Dial("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return false, false, err
	}
	defer conn.Close()
	if err := conn.Send(&rpc.Envelope{Type: rpc.MsgHello, ClientID: id}); err != nil {
		return false, false, err
	}
	for {
		env, err := conn.Recv()
		if err != nil {
			return false, progressed, err
		}
		switch env.Type {
		case rpc.MsgSelect:
			// A negotiated select carries a ratio; shrink the synthetic
			// update accordingly (deterministic given the assignment) so
			// the edge's load ranking has real bytes to observe.
			nnz := cfg.Nnz
			if env.Ratio > 1 {
				if k := compress.KForRatio(cfg.Dim, env.Ratio); k < nnz {
					nnz = k
				}
			}
			rpc.FleetUpdate(upd, cfg.Seed, env.Round, id, cfg.Dim, nnz)
			if err := conn.Send(&rpc.Envelope{Type: rpc.MsgUpdate, ClientID: id, Round: env.Round, Update: upd}); err != nil {
				return false, progressed, err
			}
			progressed = true
		case rpc.MsgPing:
			if err := conn.Send(&rpc.Envelope{Type: rpc.MsgPing, ClientID: id, Round: env.Round}); err != nil {
				return false, progressed, err
			}
		case rpc.MsgShutdown:
			return true, progressed, nil
		default:
			return false, progressed, fmt.Errorf("edge %s: unexpected %v", addr, env.Type)
		}
	}
}
