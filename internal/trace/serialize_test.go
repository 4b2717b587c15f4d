package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestLoadRejectsUnknownKind(t *testing.T) {
	_, err := Load(bytes.NewReader(saved(t, badKindTrace())))
	if err == nil || !strings.Contains(err.Error(), "Kind(99)") {
		t.Fatalf("Load accepted an op of kind 99 (err %v)", err)
	}
}

// FuzzLoad feeds Load arbitrary bytes: it must never panic, and a trace
// it accepts holds only known op kinds and survives a Save/Load round
// trip unchanged. The seeds are a valid trace, the same trace with its
// gzip stream cut in half, and a trace with an unknown op kind.
func FuzzLoad(f *testing.F) {
	valid := saved(f, sampleTrace())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(saved(f, badKindTrace()))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, op := range tr.Ops {
			if op.Kind > TxEnd {
				t.Fatalf("op %d: accepted unknown kind %v", i, op.Kind)
			}
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
