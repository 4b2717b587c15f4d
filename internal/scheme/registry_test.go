package scheme

import (
	"fmt"
	"testing"
)

// TestEntriesIndexedByID pins the table layout ByID and ID.String read:
// entry i has ID i, and String is its Label. An ID past the table is
// unknown and prints as Scheme(n).
func TestEntriesIndexedByID(t *testing.T) {
	for i, e := range All() {
		if e.ID != ID(i) {
			t.Errorf("entry %d (%s) has ID %d", i, e.Name, int(e.ID))
		}
		if e.ID.String() != e.Label {
			t.Errorf("%s: String() = %q, Label %q", e.Name, e.ID.String(), e.Label)
		}
	}
	for _, id := range []ID{-1, ID(len(All()))} {
		if _, ok := ByID(id); ok {
			t.Errorf("ByID(%d) found an entry", int(id))
		}
		if got, want := id.String(), fmt.Sprintf("Scheme(%d)", int(id)); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// FuzzParse feeds Parse arbitrary spellings: it must never panic,
// normalize must be idempotent, and a spelling Parse accepts must
// resolve to an entry whose canonical Name and Label parse back to the
// same entry, as does the spelling's own normalization. A spelling
// Parse rejects must stay rejected once normalized. The seeds are every
// registered spelling plus the corpus under testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	for _, e := range All() {
		f.Add(e.Name)
		f.Add(e.Label)
		for _, a := range e.Aliases {
			f.Add(a)
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		n := normalize(s)
		if again := normalize(n); again != n {
			t.Fatalf("normalize(%q) = %q, but normalize(%q) = %q", s, n, n, again)
		}
		e, err := Parse(s)
		if err != nil {
			if _, err := Parse(n); err == nil {
				t.Fatalf("Parse rejects %q but accepts its normalization %q", s, n)
			}
			return
		}
		for _, spelling := range []string{e.Name, e.Label, n} {
			back, err := Parse(spelling)
			if err != nil || back.ID != e.ID {
				t.Fatalf("%q resolves to %s, but %q resolves to %v (%v)", s, e.Name, spelling, back.Name, err)
			}
		}
	})
}
