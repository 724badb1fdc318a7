package rpc

import (
	"errors"
	"time"

	"adafl/internal/stats"
)

// maxRetryBackoff is the default cap of a redial window.
const maxRetryBackoff = 5 * time.Second

// RetryBackoff produces redial waits with exponential growth and full
// jitter (AWS-style: each wait is uniform in [0, window), with the
// window doubling per consecutive failure up to a cap). Without jitter,
// every client that lost its link to a crashed server redials in
// lockstep after a restart — a thundering herd that the resumed server
// absorbs as one synchronized accept burst per backoff step. Full
// jitter spreads the herd across the whole window.
type RetryBackoff struct {
	initial time.Duration
	max     time.Duration
	window  time.Duration
	rng     *stats.RNG
}

// NewRetryBackoff returns a policy starting at initial and capping the
// window at max. rng drives the jitter; a nil rng disables it (pure
// exponential waits), which tests of the deterministic schedule use.
func NewRetryBackoff(initial, max time.Duration, rng *stats.RNG) *RetryBackoff {
	if initial <= 0 {
		initial = 200 * time.Millisecond
	}
	if max <= 0 {
		max = maxRetryBackoff
	}
	return &RetryBackoff{initial: initial, max: max, window: initial, rng: rng}
}

// Next returns the wait before the upcoming redial attempt and widens
// the window for the one after it.
func (b *RetryBackoff) Next() time.Duration {
	window := b.window
	if b.window *= 2; b.window > b.max {
		b.window = b.max
	}
	if b.rng == nil {
		return window
	}
	return time.Duration(b.rng.Float64() * float64(window))
}

// Reset shrinks the window back to the initial value; called when a
// connection makes progress, so only consecutive failures escalate.
func (b *RetryBackoff) Reset() { b.window = b.initial }

// Redial is the one redial loop. It runs attempt — one whole connection:
// dial, register, take part — until it reports done, and returns that
// attempt's error (nil on a clean farewell). A failed attempt is retried
// after a full-jitter wait from a RetryBackoff(initial, default cap, rng)
// for as long as fewer than maxRetries attempts have failed in a row: an
// attempt that progressed (the link carried traffic before it broke)
// refills the budget and resets the window. ErrWireVersion and protocol
// violations are permanent, since no reconnect cures a peer that speaks
// something else; then, and when the budget is spent, Redial returns the
// last error. waiting, when non-nil, observes each retry before its sleep.
func Redial(maxRetries int, initial time.Duration, rng *stats.RNG,
	attempt func() (done, progressed bool, err error),
	waiting func(retry int, wait time.Duration, err error)) error {
	backoff := NewRetryBackoff(initial, 0, rng)
	for retries := 0; ; {
		done, progressed, err := attempt()
		if done {
			return err
		}
		if progressed {
			retries = 0
			backoff.Reset()
		}
		if errors.Is(err, errProtocol) || errors.Is(err, ErrWireVersion) || retries >= maxRetries {
			return err
		}
		retries++
		wait := backoff.Next()
		if waiting != nil {
			waiting(retries, wait, err)
		}
		time.Sleep(wait)
	}
}
