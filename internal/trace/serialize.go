package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"dolos/internal/layout"
)

// Save writes the trace to w as gzipped gob — workload generation is the
// slowest part of large sweeps, so traces are cached on disk and
// replayed byte-identically across sessions.
func (t *Trace) Save(w io.Writer) error {
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(t); err != nil {
		zw.Close()
		return fmt.Errorf("trace: encode: %w", err)
	}
	return zw.Close()
}

// Load reads a trace previously written by Save. A trace file crosses a
// trust boundary, so an op of a kind outside the enum, and a checkpoint
// line or a Read, Write or Flush op addressing no line of the default
// address map's data region (CheckLayout), are errors here rather than
// panics in the replaying machine. The pass that checks the kinds
// computes the trace's line span.
func Load(r io.Reader) (*Trace, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("trace: gzip: %w", err)
	}
	defer zr.Close()
	var t Trace
	if err := gob.NewDecoder(zr).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	for i := range t.InitImage {
		t.cover(t.InitImage[i].Addr)
	}
	for i := range t.Ops {
		op := &t.Ops[i]
		if op.Kind > TxEnd {
			return nil, fmt.Errorf("trace: op %d has unknown kind %v", i, op.Kind)
		}
		if isMem(op.Kind) {
			t.cover(op.Addr)
		}
	}
	if err := t.CheckLayout(layout.Default()); err != nil {
		return nil, err
	}
	return &t, nil
}

// ErrOutsideData marks a trace that addresses a line outside the data
// region of the layout it was checked against. Every error CheckLayout
// returns wraps it.
var ErrOutsideData = errors.New("lies outside the data region")

// CheckLayout reports a trace that addresses a line outside lay's data
// region, naming the first such checkpoint line or memory op and its
// address. It reads every line address rather than the line span, so a
// trace edited after recording is checked as it stands; one pass costs
// well under a millisecond for a benchmark-sized trace.
func (t *Trace) CheckLayout(lay layout.Map) error {
	for i := range t.InitImage {
		if a := t.InitImage[i].Addr; !lay.ValidData(a) {
			return fmt.Errorf("trace: checkpoint line %d at %#x %w", i, a, ErrOutsideData)
		}
	}
	for i := range t.Ops {
		if op := &t.Ops[i]; isMem(op.Kind) && !lay.ValidData(op.Addr) {
			return fmt.Errorf("trace: op %d (%v) at %#x %w", i, op.Kind, op.Addr, ErrOutsideData)
		}
	}
	return nil
}

// SaveFile writes the trace to path (atomically via a temp file).
func (t *Trace) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := t.Save(bw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a trace from path.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(bufio.NewReader(f))
}
