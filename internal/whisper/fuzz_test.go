package whisper

import (
	"errors"
	"slices"
	"testing"
)

// FuzzResolve checks workload alias parsing on arbitrary strings: Resolve
// either fails with an error wrapping ErrUnknown or returns a canonical
// name — one of Names() or MicroNames(), accepted by ByName, and a fixed
// point of Resolve. Seeds are under testdata/fuzz/FuzzResolve.
func FuzzResolve(f *testing.F) {
	canonical := append(Names(), MicroNames()...)
	f.Fuzz(func(t *testing.T, s string) {
		canon, err := Resolve(s)
		if err != nil {
			if !errors.Is(err, ErrUnknown) {
				t.Fatalf("Resolve(%q): error %v does not wrap ErrUnknown", s, err)
			}
			return
		}
		if !slices.Contains(canonical, canon) {
			t.Fatalf("Resolve(%q) = %q, not a canonical name", s, canon)
		}
		if _, err := ByName(canon); err != nil {
			t.Fatalf("Resolve(%q) = %q, which ByName rejects: %v", s, canon, err)
		}
		if again, err := Resolve(canon); err != nil || again != canon {
			t.Fatalf("Resolve(%q) = %q, but Resolve(%q) = %q, %v", s, canon, canon, again, err)
		}
	})
}
