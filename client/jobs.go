package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Job is the server's job envelope, the body of POST /v2/jobs and
// GET /v2/jobs/{id}.
type Job struct {
	ID            string `json:"id"`
	Status        Status `json:"status"`
	Cached        bool   `json:"cached"`
	Cells         int    `json:"cells"`
	CellsDone     int    `json:"cells_done"`
	QueuePosition int    `json:"queue_position,omitempty"`
	Err           string `json:"error,omitempty"`
}

// StreamEvent is one cell's result pushed over /v2/jobs/{id}/stream:
// the cell's index in grid enumeration order, the grid size, and the
// cell's RunRecord JSON.
type StreamEvent struct {
	Index  int             `json:"index"`
	Total  int             `json:"total"`
	Record json.RawMessage `json:"record"`

	failure string // terminal failed event's cause (internal)
}

// SubmitGrid posts the request to POST /v2/jobs, retrying 429/503 and
// transport errors per the client's policy, and returns the job
// envelope (status "done" on a submission-time cache hit).
func (c *Client) SubmitGrid(ctx context.Context, req Request) (*Job, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var last error
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		job, err := c.postOnce(ctx, body)
		if err == nil {
			return job, nil
		}
		last = err
		if !retryable(err) || attempt == c.policy.MaxAttempts-1 {
			break
		}
		d := c.backoff(attempt)
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > 0 {
			d = se.RetryAfter // the server knows best
		}
		if err := c.sleep(ctx, d); err != nil {
			return nil, errors.Join(err, last)
		}
	}
	return nil, fmt.Errorf("client: submit gave up after %d attempts: %w",
		c.policy.MaxAttempts, last)
}

func (c *Client) postOnce(ctx context.Context, body []byte) (*Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v2/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, statusError(resp, b)
	}
	var job Job
	if err := json.Unmarshal(b, &job); err != nil {
		return nil, fmt.Errorf("client: malformed submit response: %w", err)
	}
	return &job, nil
}

// Status fetches a job's envelope. A 404 matches ErrJobNotFound.
func (c *Client) Status(ctx context.Context, id string) (*Job, error) {
	b, resp, err := c.get(ctx, "/v2/jobs/"+id)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp, b)
	}
	var job Job
	if err := json.Unmarshal(b, &job); err != nil {
		return nil, fmt.Errorf("client: malformed status response: %w", err)
	}
	return &job, nil
}

// Result fetches a settled job's RunRecord bytes. A job still in
// flight matches ErrJobNotDone, a failed job ErrJobFailed, an unknown
// id ErrJobNotFound.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	b, resp, err := c.get(ctx, "/v2/jobs/"+id+"/result")
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return b, nil
	case http.StatusAccepted:
		return nil, fmt.Errorf("%w: job %s still settling", ErrJobNotDone, id)
	case http.StatusInternalServerError:
		se := statusError(resp, b)
		return nil, fmt.Errorf("%w: job %s: %s", ErrJobFailed, id, se.Message)
	}
	return nil, statusError(resp, b)
}

// Stream opens GET /v2/jobs/{id}/stream and returns an iterator over
// the job's per-cell results. Next delivers each cell exactly once in
// index order; a dropped connection reconnects automatically with
// Last-Event-ID, so already-delivered cells are neither repeated nor
// lost. Next returns io.EOF after the terminal done event, an error
// wrapping ErrJobFailed when the job fails, or one wrapping
// ErrJobNotFound when a reconnect reaches a server that no longer knows
// the job (it restarted); the stream does not retry that.
func (c *Client) Stream(ctx context.Context, id string) (*Stream, error) {
	s := &Stream{c: c, ctx: ctx, id: id}
	if err := s.connect(); err != nil {
		return nil, err
	}
	return s, nil
}

// Stream iterates the SSE result stream of one job. Not safe for
// concurrent use. Close releases the connection; it is safe to call
// after Next returned io.EOF.
type Stream struct {
	c    *Client
	ctx  context.Context
	id   string
	last int // cells already delivered; the Last-Event-ID resume point

	body io.ReadCloser
	rd   *bufio.Reader
	done bool
}

func (s *Stream) connect() error {
	req, err := http.NewRequestWithContext(s.ctx, http.MethodGet,
		s.c.base+"/v2/jobs/"+s.id+"/stream", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if s.last > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(s.last))
	}
	resp, err := s.c.hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := readBody(resp)
		return statusError(resp, b)
	}
	s.body = resp.Body
	s.rd = bufio.NewReader(resp.Body)
	return nil
}

// Next returns the next cell event. io.EOF means the job settled
// successfully and the stream is complete.
func (s *Stream) Next() (*StreamEvent, error) {
	if s.done {
		return nil, io.EOF
	}
	misses := 0
	for {
		ev, kind, err := s.readEvent()
		if err != nil {
			if s.ctx.Err() != nil {
				return nil, s.ctx.Err()
			}
			// The connection dropped mid-stream (a worker restart, a
			// proxy timeout). Resume from the last delivered cell.
			if misses++; misses >= s.c.policy.MaxAttempts {
				return nil, err
			}
			s.c.retries.Add(1)
			s.Close()
			if serr := s.c.sleep(s.ctx, s.c.backoff(misses-1)); serr != nil {
				return nil, errors.Join(serr, err)
			}
			if cerr := s.connect(); cerr != nil {
				if !retryable(cerr) {
					return nil, cerr
				}
			}
			continue
		}
		misses = 0
		switch kind {
		case "cell":
			if ev.Index < s.last {
				continue // replay overlap after reconnect: already delivered
			}
			s.last = ev.Index + 1
			return ev, nil
		case "done":
			s.done = true
			s.Close()
			return nil, io.EOF
		case "failed":
			s.done = true
			s.Close()
			return nil, fmt.Errorf("%w: job %s: %s", ErrJobFailed, s.id, ev.failure)
		}
	}
}

// Delivered returns how many cells the stream has delivered so far —
// also the resume point a reconnect presents as Last-Event-ID.
func (s *Stream) Delivered() int { return s.last }

// Close releases the stream's connection.
func (s *Stream) Close() error {
	if s.body == nil {
		return nil
	}
	err := s.body.Close()
	s.body, s.rd = nil, nil
	return err
}

// readEvent parses one SSE event from the wire.
func (s *Stream) readEvent() (*StreamEvent, string, error) {
	if s.rd == nil {
		if err := s.connect(); err != nil {
			return nil, "", err
		}
	}
	var kind, data string
	for {
		line, err := s.rd.ReadString('\n')
		if err != nil {
			return nil, "", err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if kind == "" && data == "" {
				continue // stray keep-alive separator
			}
			return parseEvent(kind, data)
		case strings.HasPrefix(line, "event:"):
			kind = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data != "" {
				data += "\n"
			}
			data += strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")
		}
		// id: lines are redundant with the cell's own index field.
	}
}

func parseEvent(kind, data string) (*StreamEvent, string, error) {
	switch kind {
	case "cell":
		var ev StreamEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, "", fmt.Errorf("client: malformed cell event: %w", err)
		}
		return &ev, kind, nil
	case "done":
		return &StreamEvent{}, kind, nil
	case "failed":
		var body struct {
			Error string `json:"error"`
		}
		json.Unmarshal([]byte(data), &body)
		ev := &StreamEvent{}
		ev.failure = body.Error
		return ev, kind, nil
	}
	return nil, "", fmt.Errorf("client: unknown stream event %q", kind)
}
