package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"dolos/internal/telemetry"
)

// ErrorEnvelope is the error body every endpoint returns: a stable
// machine-readable code, a human message, and a retry hint in seconds
// for backpressure codes.
type ErrorEnvelope struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	RetryAfter int64  `json:"retry_after,omitempty"`
}

// Error codes carried by ErrorEnvelope.Code.
const (
	CodeBadRequest   = "bad_request"
	CodeBodyTooLarge = "body_too_large"
	CodeNotFound     = "not_found"
	CodeQueueFull    = "queue_full"
	CodeUnavailable  = "unavailable"
	CodeJobFailed    = "job_failed"
	CodeInternal     = "internal"
)

// Handler returns the server's HTTP API:
//
//	POST /v2/jobs             submit a grid or single-cell run
//	GET  /v2/jobs/{id}        job status with cell progress
//	GET  /v2/jobs/{id}/stream SSE of per-cell results (Last-Event-ID resumable)
//	GET  /v2/jobs/{id}/result RunRecord JSON (dolos-sim -json schema)
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             liveness ("ok", or 503 while draining)
//
// Every handler runs behind panic-to-500 recovery and a request
// counter; every error body is an ErrorEnvelope. Any other method or
// path gets a 404 not_found envelope, not the mux's plain-text 404 or
// 405.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", handleNotFound)
	mux.HandleFunc("POST /v2/jobs", s.handleSubmitV2)
	mux.HandleFunc("GET /v2/jobs/{id}", s.handleStatusV2)
	mux.HandleFunc("GET /v2/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v2/jobs/{id}/result", s.handleResultV2)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mHTTP.Inc()
		defer func() {
			if p := recover(); p != nil {
				s.mPanics.Inc()
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		mux.ServeHTTP(w, r)
	})
}

// handleNotFound answers every request no route matches.
func handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, fmt.Sprintf("no endpoint %s %s", r.Method, r.URL.Path))
}

// decodeSubmit parses and bounds a submission body. On failure it has
// already written the error response.
func (s *Server) decodeSubmit(w http.ResponseWriter, r *http.Request) (Request, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return Request{}, false
		}
		writeError(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return Request{}, false
	}
	return req, true
}

// maxTimeoutMS is the largest timeout_ms whose nanoseconds fit a
// time.Duration.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// msToDuration maps the wire timeout_ms field onto a duration (0 keeps
// the server default). A negative value, or one whose nanoseconds would
// overflow and wrap into a tiny or negative deadline, is an error.
func msToDuration(ms int64) (time.Duration, error) {
	if ms < 0 || ms > maxTimeoutMS {
		return 0, fmt.Errorf("timeout_ms %d out of range [0, %d]", ms, maxTimeoutMS)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.gQueueDepth.Set(float64(len(s.queue)))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, telemetry.Snapshot(nil, s.reg))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.isDraining() {
		writeEnvelope(w, http.StatusServiceUnavailable, CodeUnavailable, "draining", 5*time.Second)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeEnvelope writes the error body, with a Retry-After header when
// the code is retryable after a delay.
func writeEnvelope(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	env := ErrorEnvelope{Code: code, Message: msg}
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		env.RetryAfter = secs
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, status, env)
}

// writeError is the no-retry-hint envelope, mapping the HTTP status to
// its stable code.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeEnvelope(w, status, codeForStatus(status), msg, 0)
}

func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusRequestEntityTooLarge:
		return CodeBodyTooLarge
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusTooManyRequests:
		return CodeQueueFull
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	default:
		return CodeInternal
	}
}
