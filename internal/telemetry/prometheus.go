package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4): one HELP/TYPE/sample block per
// metric, counters first, then gauges, then histograms, each section in
// sorted name order so the output is deterministic and diffable.
//
// Counters and gauges map directly. A histogram is rendered as a
// summary (name_count / name_sum — the simulator's histograms track
// moments, not buckets) followed by two derived gauges, name_min and
// name_max, which carry the extremes Prometheus summaries cannot.
//
// Dotted simulator metric names ("wpq.coalesce.hits") are sanitized to
// the exposition charset ([a-zA-Z0-9_:], no leading digit); the HELP
// line preserves the original spelling so dashboards can be traced back
// to the in-process name.
func WritePrometheus(w io.Writer, snap MetricsSnapshot) error {
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if err := writeBlock(w, pn, n, "counter",
			sample{pn, strconv.FormatUint(snap.Counters[n], 10)}); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if err := writeBlock(w, pn, n, "gauge",
			sample{pn, promFloat(snap.Gauges[n])}); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		pn := promName(n)
		if err := writeBlock(w, pn, n, "summary",
			sample{pn + "_count", strconv.FormatUint(h.Count, 10)},
			sample{pn + "_sum", promFloat(h.Sum)}); err != nil {
			return err
		}
		if err := writeBlock(w, pn+"_min", n+" minimum", "gauge",
			sample{pn + "_min", promFloat(h.Min)}); err != nil {
			return err
		}
		if err := writeBlock(w, pn+"_max", n+" maximum", "gauge",
			sample{pn + "_max", promFloat(h.Max)}); err != nil {
			return err
		}
	}
	return nil
}

// sample is one "name value" exposition line of a metric block.
type sample struct {
	name  string
	value string
}

func writeBlock(w io.Writer, name, help, typ string, samples ...sample) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		name, escapeHelp(help), name, typ); err != nil {
		return err
	}
	for _, s := range samples {
		if _, err := fmt.Fprintf(w, "%s %s\n", s.name, s.value); err != nil {
			return err
		}
	}
	return nil
}

// promName maps an in-process metric name onto the exposition charset:
// every rune outside [a-zA-Z0-9_:] becomes '_', and a leading digit is
// prefixed with '_'.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9')
		if !ok {
			b.WriteByte('_')
			continue
		}
		if i == 0 && r >= '0' && r <= '9' {
			b.WriteByte('_')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promFloat formats a float the way Prometheus parsers expect,
// including the +Inf/-Inf/NaN spellings.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
