package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dolos/internal/layout"
)

func sampleTrace() *Trace {
	r := NewRecorder("sample", 512)
	var d [64]byte
	d[3] = 0x33
	r.SetInitImage([]InitLine{{Addr: 4096, Data: d}})
	r.TxBegin()
	r.Compute(100)
	r.Write(4096, d)
	r.Flush(4096, d)
	r.Fence()
	r.Read(4096)
	r.TxEnd()
	return r.Finish()
}

func tracesEqual(a, b *Trace) bool {
	if a.Name != b.Name || a.TxSize != b.TxSize || a.Transactions != b.Transactions {
		return false
	}
	if len(a.Ops) != len(b.Ops) || len(a.InitImage) != len(b.InitImage) {
		return false
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			return false
		}
	}
	for i := range a.InitImage {
		if a.InitImage[i] != b.InitImage[i] {
			return false
		}
	}
	return true
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(tr, got) {
		t.Fatal("round trip lost data")
	}
}

func TestSaveLoadFile(t *testing.T) {
	tr := sampleTrace()
	path := filepath.Join(t.TempDir(), "sample.trace")
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tracesEqual(tr, got) {
		t.Fatal("file round trip lost data")
	}
	// Atomic write: no temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadFile("/nonexistent/file"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// badKindTrace is sampleTrace with one op of a kind outside the enum.
func badKindTrace() *Trace {
	tr := sampleTrace()
	tr.Ops[2].Kind = 99
	return tr
}

func saved(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// farAddrTrace is sampleTrace with a Write and a Flush at 1<<50, past
// the default address map's 16 GB data region.
func farAddrTrace() *Trace {
	tr := sampleTrace()
	tr.Ops[2].Addr = 1 << 50
	tr.Ops[3].Addr = 1 << 50
	return tr
}

// TestLoadRejectsAddressOutsideData pins that Load refuses, naming it, a
// memory op or a checkpoint line at or past the data region: running
// such a trace panics in the Ma-SU.
func TestLoadRejectsAddressOutsideData(t *testing.T) {
	end := layout.Default().DataSpan
	far := farAddrTrace()
	img := sampleTrace()
	img.InitImage[0].Addr = end
	read := sampleTrace()
	read.Ops[5].Addr = end
	top := sampleTrace() // the last line of the address space
	top.Ops[2].Addr = ^uint64(63)
	for _, c := range []struct {
		name string
		tr   *Trace
		want string
	}{
		{"write", far, "op 2 (write) at 0x4000000000000"},
		{"checkpoint", img, "checkpoint line 0 at 0x400000000"},
		{"read", read, "op 5 (read) at 0x400000000"},
		{"top line", top, "op 2 (write) at 0xffffffffffffffc0"},
	} {
		_, err := Load(bytes.NewReader(saved(t, c.tr)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Load error %v, want one naming %q", c.name, err, c.want)
		}
	}
	last := sampleTrace()
	last.Ops[2].Addr = end - 64
	if _, err := Load(bytes.NewReader(saved(t, last))); err != nil {
		t.Errorf("the last data line was refused: %v", err)
	}
}

// TestCheckLayoutReadsEveryLine pins that CheckLayout reads the lines
// themselves, not the span the Recorder tracked: a recorded trace whose
// Ops were edited afterwards, and one built by hand with no span at all,
// are refused for the line outside the data region.
func TestCheckLayoutReadsEveryLine(t *testing.T) {
	small := layout.Small()
	edited := sampleTrace()
	edited.Ops[5].Addr = small.DataSpan
	byHand := &Trace{
		InitImage: []InitLine{{Addr: 4096}},
		Ops:       []Op{{Kind: Compute, Cycles: 5}, {Kind: Write, Addr: small.DataSpan + 64}},
	}
	for _, c := range []struct {
		name string
		tr   *Trace
		want string
	}{
		{"edited op", edited, "op 5 (read) at 0x4000000"},
		{"built by hand", byHand, "op 1 (write) at 0x4000040"},
	} {
		err := c.tr.CheckLayout(small)
		if !errors.Is(err, ErrOutsideData) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckLayout error %v, want one wrapping ErrOutsideData naming %q", c.name, err, c.want)
		}
		if err := c.tr.CheckLayout(layout.Default()); err != nil {
			t.Errorf("%s: refused on the default layout: %v", c.name, err)
		}
	}
}

// TestLoadComputesLineSpan pins that Load recomputes the span the
// Recorder tracked rather than reading one from the file.
func TestLoadComputesLineSpan(t *testing.T) {
	tr := sampleTrace()
	tr.Ops[2].Addr = 0x2040
	tr.Ops[5].Addr = 0x9000
	got, err := Load(bytes.NewReader(saved(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if lo, end := got.LineSpan(); lo != 0x1000 || end != 0x9040 {
		t.Fatalf("loaded span [%#x, %#x), want [0x1000, 0x9040)", lo, end)
	}
}

func TestLoadRejectsUnknownKind(t *testing.T) {
	_, err := Load(bytes.NewReader(saved(t, badKindTrace())))
	if err == nil || !strings.Contains(err.Error(), "Kind(99)") {
		t.Fatalf("Load accepted an op of kind 99 (err %v)", err)
	}
}

// FuzzLoad feeds Load arbitrary bytes: it must never panic, and a trace
// it accepts holds only known op kinds, addresses only lines of the
// default data region, spans exactly the lines it touches, and survives
// a Save/Load round trip unchanged. The seeds are a valid trace, the
// same trace with its gzip stream cut in half, a trace with an unknown
// op kind and one writing past the data region.
func FuzzLoad(f *testing.F) {
	valid := saved(f, sampleTrace())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(saved(f, badKindTrace()))
	f.Add(saved(f, farAddrTrace()))
	data := layout.Default()
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := Load(bytes.NewReader(b))
		if err != nil {
			return
		}
		var want Trace
		for i, il := range tr.InitImage {
			if !data.ValidData(il.Addr) {
				t.Fatalf("checkpoint line %d: accepted address %#x outside the data region", i, il.Addr)
			}
			want.cover(il.Addr)
		}
		for i, op := range tr.Ops {
			if op.Kind > TxEnd {
				t.Fatalf("op %d: accepted unknown kind %v", i, op.Kind)
			}
			if isMem(op.Kind) {
				if !data.ValidData(op.Addr) {
					t.Fatalf("op %d: accepted address %#x outside the data region", i, op.Addr)
				}
				want.cover(op.Addr)
			}
		}
		if lo, end := tr.LineSpan(); lo != want.lo || end != want.end {
			t.Fatalf("span [%#x, %#x), the trace touches [%#x, %#x)", lo, end, want.lo, want.end)
		}
		again, err := Load(bytes.NewReader(saved(t, tr)))
		if err != nil {
			t.Fatalf("re-load of an accepted trace: %v", err)
		}
		if !tracesEqual(tr, again) {
			t.Fatal("accepted trace changed over a Save/Load round trip")
		}
	})
}
