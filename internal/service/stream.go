package service

import (
	"fmt"
	"io"
	"strconv"
)

// Stream event kinds on the /v2/jobs/{id}/stream SSE wire.
const (
	eventCell   = "cell"   // one finished cell's RunRecord
	eventDone   = "done"   // terminal: the job settled successfully
	eventFailed = "failed" // terminal: the job settled with an error
)

// streamEvent is one server-sent event. Cell events carry the cell's
// compact RunRecord bytes in data and are numbered (SSE id = index+1,
// so Last-Event-ID: k resumes after the k-th cell); terminal events
// carry no id — replaying them on reconnect is harmless.
type streamEvent struct {
	kind   string
	index  int
	total  int
	data   []byte
	cached bool
}

// writeSSE renders one event in text/event-stream framing. Cell
// records are compact JSON (no newlines), so a single data: line is
// always enough.
func writeSSE(w io.Writer, ev streamEvent) {
	switch ev.kind {
	case eventCell:
		fmt.Fprintf(w, "id: %d\nevent: cell\ndata: {\"index\":%d,\"total\":%d,\"record\":%s}\n\n",
			ev.index+1, ev.index, ev.total, ev.data)
	case eventDone:
		fmt.Fprintf(w, "event: done\ndata: {\"status\":\"done\",\"cached\":%t,\"cells\":%d}\n\n",
			ev.cached, ev.total)
	case eventFailed:
		fmt.Fprintf(w, "event: failed\ndata: {\"status\":\"failed\",\"error\":%s}\n\n",
			strconv.Quote(string(ev.data)))
	}
}

// subscribe attaches a stream consumer to a job at a resume point:
// cells after (0-based count of cells already seen — the Last-Event-ID
// value) are replayed from the job's cells, and a live
// channel carries the rest. A settled job gets its terminal event in
// the replay and a nil channel; the caller just writes the replay and
// returns. cancel detaches the subscriber (idempotent; safe after the
// job settles and closes the channel itself).
func (s *Server) subscribe(job *Job, after int) (replay []streamEvent, ch chan streamEvent, cancel func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if after < 0 {
		after = 0
	}
	if after > job.emitted {
		after = job.emitted
	}
	for i := after; i < job.emitted; i++ {
		replay = append(replay, streamEvent{kind: eventCell, index: i, total: job.total, data: job.cells[i]})
	}
	switch job.status {
	case StatusDone:
		replay = append(replay, streamEvent{kind: eventDone, total: job.total, cached: job.cached})
		return replay, nil, func() {}
	case StatusFailed:
		replay = append(replay, streamEvent{kind: eventFailed, total: job.total, data: []byte(job.errMsg)})
		return replay, nil, func() {}
	}
	ch = make(chan streamEvent, job.total+2)
	if job.subs == nil {
		job.subs = make(map[chan streamEvent]bool)
	}
	job.subs[ch] = true
	cancel = func() {
		s.mu.Lock()
		delete(job.subs, ch)
		s.mu.Unlock()
	}
	return replay, ch, cancel
}
