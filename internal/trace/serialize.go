package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"
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
// trust boundary, so an op of a kind outside the enum is an error here
// rather than a panic in the replaying core.
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
	for i := range t.Ops {
		if k := t.Ops[i].Kind; k > TxEnd {
			return nil, fmt.Errorf("trace: op %d has unknown kind %v", i, k)
		}
	}
	return &t, nil
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
