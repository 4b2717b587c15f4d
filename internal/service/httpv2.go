package service

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// JobV2 is the body of POST /v2/jobs and GET /v2/jobs/{id}: the job's
// identity and lifecycle status, whether the result came from the
// cache, and its streaming progress.
type JobV2 struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	Cached bool      `json:"cached"`
	// Cells is the grid size; CellsDone counts the per-cell results
	// already streamed.
	Cells     int `json:"cells"`
	CellsDone int `json:"cells_done"`
	// QueuePosition is the 1-based position among queued jobs (present
	// only while queued).
	QueuePosition int `json:"queue_position,omitempty"`
	// Error carries the failure cause when Status is "failed".
	Error string `json:"error,omitempty"`
}

// handleSubmitV2 serves POST /v2/jobs: decode, normalization, submit.
func (s *Server) handleSubmitV2(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeSubmit(w, r)
	if !ok {
		return
	}
	n, err := normalize(req, s.cfg.Limits)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	timeout, err := msToDuration(req.TimeoutMS)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	job, err := s.submit(n, timeout)
	switch {
	case errors.Is(err, errDraining):
		writeEnvelope(w, http.StatusServiceUnavailable, CodeUnavailable, err.Error(), 5*time.Second)
		return
	case errors.Is(err, errQueueFull):
		writeEnvelope(w, http.StatusTooManyRequests, CodeQueueFull, err.Error(), time.Second)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	st := snapshotV2(s, job)
	status := http.StatusAccepted
	if st.Status == StatusDone {
		status = http.StatusOK
	}
	writeJSON(w, status, st)
}

func (s *Server) handleStatusV2(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	writeJSON(w, http.StatusOK, snapshotV2(s, job))
}

func (s *Server) handleResultV2(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	st := snapshotV2(s, job)
	switch st.Status {
	case StatusDone:
		// job.res was set once, before the status snapshotV2 read as done.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(job.res.doc)
	case StatusFailed:
		writeEnvelope(w, http.StatusInternalServerError, CodeJobFailed, st.Error, 0)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

// handleStream serves GET /v2/jobs/{id}/stream: per-cell RunRecords as
// server-sent events, in cell order, each numbered so a client that
// reconnects with Last-Event-ID (or ?last_event_id=) resumes exactly
// after the last cell it saw — replayed from the job's cell slice, not
// recomputed. The stream ends with a terminal done or failed event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	resume, name := r.Header.Get("Last-Event-ID"), "Last-Event-ID"
	if resume == "" {
		resume, name = r.URL.Query().Get("last_event_id"), "last_event_id"
	}
	after, err := parseCount(name, resume)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	replay, ch, cancel := s.subscribe(job, after)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	fl.Flush()
	if ch == nil {
		return // job already settled: replay carried the terminal event
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			writeSSE(w, ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// parseCount reads a non-negative integer query or header value. An
// absent value is 0; anything else that is not a non-negative decimal
// integer is an error naming the input, so a typo is answered with 400
// instead of silently meaning "from the start".
func parseCount(name, v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%s %q is not a non-negative integer", name, v)
	}
	return n, nil
}

// snapshotV2 reads a job's /v2 view under the lock.
func snapshotV2(s *Server, job *Job) JobV2 {
	pos := s.queuePosition(job)
	s.mu.Lock()
	defer s.mu.Unlock()
	return JobV2{
		ID:            job.id,
		Status:        job.status,
		Cached:        job.cached,
		Cells:         job.total,
		CellsDone:     job.emitted,
		QueuePosition: pos,
		Error:         job.errMsg,
	}
}
