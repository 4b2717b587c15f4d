// Package client is the official Go client for the dolos-serve
// /v2 job API: submit simulation requests, poll them to completion,
// and fetch RunRecord JSON — with context deadlines on every call,
// exponential backoff with deterministic jitter that honors the
// server's Retry-After on 429/503, and idempotent resubmission of
// failed or forgotten jobs (the server's result cache and single-flight
// dedup key on the normalized request, so identical requests run one
// simulation and a resubmitted job reuses completed work instead of
// repeating it; records are a pure function of the request, so
// recomputing one after a server restart is exact).
//
// The one-call entry point:
//
//	cl := client.New("127.0.0.1:8080")
//	res, err := cl.Run(ctx, client.Request{
//		Workloads: []string{"Hashmap"},
//		Schemes:   []string{"dolos-partial"},
//	})
//
// Run submits, waits, and retries through queue-full rejections,
// drain windows, server-side job failures and server restarts (which
// forget every job); errors that survive the
// retry budget match the package sentinels under errors.Is (see
// errors.go). SubmitGrid, Status, Result and Stream expose the same
// machinery one step at a time, plus resumable per-cell streaming. See
// DESIGN.md §11 for the retry policy's backoff table.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Request is the body of POST /v2/jobs, mirroring the server's wire
// schema: a workloads × schemes grid (or a single cell), the
// simulation parameters, and an optional per-job timeout. Zero values
// take the server's defaults.
type Request struct {
	Workloads    []string `json:"workloads,omitempty"`
	Schemes      []string `json:"schemes,omitempty"`
	Tree         string   `json:"tree,omitempty"`
	Transactions int      `json:"transactions,omitempty"`
	TxSize       int      `json:"tx_size,omitempty"`
	Seed         int64    `json:"seed,omitempty"`
	WPQ          int      `json:"wpq,omitempty"`
	NoCoalesce   bool     `json:"no_coalesce,omitempty"`
	TimeoutMS    int64    `json:"timeout_ms,omitempty"`
}

// Status is a job's lifecycle state as the server reports it.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// RunResult is a completed Run: the settled job envelope and the
// RunRecord JSON bytes (one object for a single cell, an array for a
// grid — the dolos-sim -json schema).
type RunResult struct {
	Job   Job
	Bytes []byte
}

// RetryPolicy shapes the client's backoff. The nominal delay before
// retry n (0-based) is BaseDelay·Multiplierⁿ capped at MaxDelay, then
// spread by ±Jitter (a fraction); a server Retry-After overrides the
// computed delay. The zero value takes the defaults noted per field.
type RetryPolicy struct {
	// MaxAttempts bounds tries per operation — submission attempts per
	// SubmitGrid, resubmissions per Run (default 6).
	MaxAttempts int
	// BaseDelay is the first retry delay (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 2s).
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor (default 2).
	Multiplier float64
	// Jitter spreads each delay by ±this fraction (default 0.2). The
	// jitter stream is seeded (WithSeed), so a pinned seed replays the
	// same delays.
	Jitter float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 6
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier <= 0 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// Client talks to one dolos-serve instance. It is safe for concurrent
// use; create with New.
type Client struct {
	base   string
	hc     *http.Client
	policy RetryPolicy
	poll   time.Duration

	mu  sync.Mutex
	rng *rand.Rand

	retries   atomic.Uint64
	resubmits atomic.Uint64

	// sleepFn, when set (tests only), replaces the real backoff sleep.
	sleepFn func(ctx context.Context, d time.Duration) error
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default: a
// client with a 30s overall timeout).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetryPolicy replaces the retry policy (zero fields keep their
// defaults).
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) { c.policy = p.withDefaults() }
}

// WithSeed seeds the jitter PRNG (default 1), pinning the exact delay
// sequence for reproducible load runs and tests.
func WithSeed(seed int64) Option {
	return func(c *Client) { c.rng = rand.New(rand.NewSource(seed)) }
}

// WithPollInterval sets the initial status-poll interval used by Run
// (default 5ms; it backs off 1.5× per poll up to 250ms).
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.poll = d
		}
	}
}

// New builds a client for the server at baseURL ("host:port" or a full
// URL).
func New(baseURL string, opts ...Option) *Client {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	c := &Client{
		base:   strings.TrimRight(baseURL, "/"),
		hc:     &http.Client{Timeout: 30 * time.Second},
		policy: RetryPolicy{}.withDefaults(),
		poll:   5 * time.Millisecond,
		rng:    rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the server base URL the client targets.
func (c *Client) BaseURL() string { return c.base }

// Retries returns how many HTTP-level retries (429/503/transport
// errors) the client has performed.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// Resubmits returns how many failed or forgotten jobs Run has
// resubmitted.
func (c *Client) Resubmits() uint64 { return c.resubmits.Load() }

// Run is the one-call happy path: submit the request, wait for the job
// to settle, fetch its result. Submission retries 429/503/transport
// errors with backoff (honoring Retry-After); a job that settles
// "failed" — a crashed handler, an expired server-side deadline — or
// that the server no longer knows (ErrJobNotFound: it restarted and
// forgot its jobs) is resubmitted up to the policy's attempt budget,
// which is idempotent because the server keys results by the
// normalized request. Concurrent Run calls with an identical Request
// share one simulation on the server, which deduplicates them.
func (c *Client) Run(ctx context.Context, req Request) (*RunResult, error) {
	var last error
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.resubmits.Add(1)
			if err := c.sleep(ctx, c.backoff(attempt-1)); err != nil {
				return nil, errors.Join(err, last)
			}
		}
		job, err := c.SubmitGrid(ctx, req)
		if err != nil {
			return nil, err // SubmitGrid spent its own retry budget
		}
		res, err := c.wait(ctx, job)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, ErrJobFailed) && !errors.Is(err, ErrJobNotFound) {
			return nil, err
		}
		last = err
	}
	return nil, last
}

// wait polls a job envelope to settlement and fetches the result.
// Transient status-poll errors are tolerated up to the policy's
// attempt budget of consecutive failures.
func (c *Client) wait(ctx context.Context, job *Job) (*RunResult, error) {
	interval := c.poll
	misses := 0
	for {
		switch job.Status {
		case StatusDone:
			b, err := c.Result(ctx, job.ID)
			if err != nil {
				return nil, err
			}
			return &RunResult{Job: *job, Bytes: b}, nil
		case StatusFailed:
			return nil, fmt.Errorf("%w: job %s: %s", ErrJobFailed, job.ID, job.Err)
		}
		if err := c.sleep(ctx, interval); err != nil {
			return nil, err
		}
		next, err := c.Status(ctx, job.ID)
		if err != nil {
			if !retryable(err) {
				return nil, err
			}
			if misses++; misses >= c.policy.MaxAttempts {
				return nil, err
			}
			c.retries.Add(1)
			continue
		}
		misses = 0
		job = next
		if interval < 250*time.Millisecond {
			interval = interval * 3 / 2
		}
	}
}

// get performs one GET and returns the drained body and response.
func (c *Client) get(ctx context.Context, path string) ([]byte, *http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	b, err := readBody(resp)
	if err != nil {
		return nil, nil, err
	}
	return b, resp, nil
}

func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// retryable classifies an error: HTTP 429/503 and 5xx rejections and
// transport-level failures are worth retrying; context expiry and
// everything else (4xx, malformed responses) is terminal.
func retryable(err error) bool {
	if err == nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusTooManyRequests || se.Code >= 500
	}
	return true // transport-level
}

// backoff computes the jittered delay before retry attempt (0-based).
func (c *Client) backoff(attempt int) time.Duration {
	p := c.policy
	d := float64(p.BaseDelay) * math.Pow(p.Multiplier, float64(attempt))
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		c.mu.Lock()
		u := c.rng.Float64()
		c.mu.Unlock()
		d *= 1 + p.Jitter*(2*u-1)
	}
	return time.Duration(d)
}

// sleep blocks for d or until ctx is done.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.sleepFn != nil {
		return c.sleepFn(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
