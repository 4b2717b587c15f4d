package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Sentinel errors of the client API. Every error the client returns
// wraps the matching sentinel, so errors.Is works end-to-end from the
// HTTP status the server sent to the caller's switch:
//
//	res, err := cl.Run(ctx, req)
//	switch {
//	case errors.Is(err, client.ErrQueueFull):   // server said 429
//	case errors.Is(err, client.ErrUnavailable): // server said 503 (draining)
//	case errors.Is(err, client.ErrJobNotFound): // server said 404
//	case errors.Is(err, client.ErrJobFailed):   // job settled "failed"
//	}
var (
	// ErrQueueFull reports a 429: the server's job queue is saturated.
	// SubmitGrid and Run retry it automatically, honoring Retry-After; it
	// surfaces only once the retry budget is spent.
	ErrQueueFull = errors.New("client: server job queue is full")
	// ErrUnavailable reports a 503: the server is draining or down for
	// the moment. Retried like ErrQueueFull.
	ErrUnavailable = errors.New("client: server unavailable")
	// ErrJobNotFound reports a 404 for a job id the server does not
	// know, such as an id from before a server restart (the server
	// keeps jobs in memory only). Status, Result and Stream do not
	// retry it; Run resubmits the request, which is exact.
	ErrJobNotFound = errors.New("client: unknown job id")
	// ErrJobFailed reports a job that settled in status "failed"; the
	// wrapping error carries the server's failure cause. Run resubmits
	// failed jobs (idempotently) before surfacing this.
	ErrJobFailed = errors.New("client: job failed")
	// ErrJobNotDone reports a Result call on a job that has not
	// settled yet. Run and Stream wait for settlement and never
	// return it.
	ErrJobNotDone = errors.New("client: job not done")
)

// StatusError is an HTTP-level rejection from the server: the status
// code, the server's error message, and any Retry-After hint. It
// unwraps to the matching sentinel (429 → ErrQueueFull, 503 →
// ErrUnavailable, 404 → ErrJobNotFound), so callers rarely need the
// type itself.
type StatusError struct {
	Code       int
	Message    string
	RetryAfter time.Duration
	// APICode is the server's stable machine-readable error code from
	// the error envelope ("queue_full", "unavailable", ...). Empty
	// when the body is not an envelope, such as a proxy's 502 page.
	APICode string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: HTTP %d: %s", e.Code, e.Message)
}

// Unwrap maps the status code onto the client's sentinel errors.
func (e *StatusError) Unwrap() error {
	switch e.Code {
	case http.StatusTooManyRequests:
		return ErrQueueFull
	case http.StatusServiceUnavailable:
		return ErrUnavailable
	case http.StatusNotFound:
		return ErrJobNotFound
	}
	return nil
}

// statusError builds a StatusError from a non-2xx response whose body
// has already been read.
func statusError(resp *http.Response, body []byte) *StatusError {
	msg := strings.TrimSpace(string(body))
	var envelope struct {
		Code       string `json:"code"`
		Message    string `json:"message"`
		RetryAfter int64  `json:"retry_after"`
	}
	se := &StatusError{
		Code:       resp.StatusCode,
		RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}
	if err := json.Unmarshal(body, &envelope); err == nil {
		if envelope.Message != "" {
			msg = envelope.Message
		}
		se.APICode = envelope.Code
		if se.RetryAfter == 0 && envelope.RetryAfter > 0 {
			se.RetryAfter = time.Duration(envelope.RetryAfter) * time.Second
		}
	}
	se.Message = msg
	return se
}

// parseRetryAfter decodes a Retry-After header: delay-seconds or an
// HTTP date (0 when absent or unparseable).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}
