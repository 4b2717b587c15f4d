package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanLog keeps the traced run's host spans in memory; they are written
// out once, when the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

type span struct {
	parent     int // index of the enclosing span; -1 for a root
	name       string
	cell       int
	start, end time.Time
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a span and returns its index, for use as a parent.
func (l *spanLog) add(parent int, name string, cell int, start, end time.Time) int {
	l.spans = append(l.spans, span{parent: parent, name: name, cell: cell, start: start, end: end})
	return len(l.spans) - 1
}

// selfTimes returns the self time of every span, grouped by span name:
// its duration minus the part of it that its children cover. Children of
// one span run one after another, so their durations never overlap.
func (l *spanLog) selfTimes() map[string][]time.Duration {
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		d := s.end.Sub(s.start)
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	out := make(map[string][]time.Duration)
	for i, s := range l.spans {
		out[s.name] = append(out[s.name], self[i])
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events on one thread, timestamps in µs), which Perfetto and
// chrome://tracing open and nest by time.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start.Sub(l.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"cell": s.cell},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
