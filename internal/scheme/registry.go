package scheme

import (
	"fmt"
	"sort"
	"strings"

	"dolos/internal/masu"
)

// Entry is one registered scheme: identity, naming, and the security
// pipeline the controller instantiates for it.
type Entry struct {
	ID ID
	// Name is the canonical CLI name (dolos-sim -scheme <Name>).
	Name string
	// Label is the figure label, which ID.String() returns.
	Label string
	// Aliases are additional accepted spellings (Go identifiers, label
	// variants). Parse also normalizes case and -_/space separators.
	Aliases []string
	// Paper cites the design's source.
	Paper string

	Pipeline Pipeline
}

// entries is the registry, indexed by ID (entries[id].ID == id). Every
// CLI, the service API and the grid enumerate this one table.
var entries = []Entry{
	{
		ID: NonSecureADR, Name: "ideal", Label: "NonSecure-ADR",
		Aliases: []string{"NonSecureADR"},
		Paper:   "Dolos (MICRO 2021), Figure 5-c upper bound",
		Pipeline: Pipeline{
			Insert: InsertIdeal,
		},
	},
	{
		ID: PreWPQSecure, Name: "baseline", Label: "Pre-WPQ-Secure",
		Aliases: []string{"PreWPQSecure"},
		Paper:   "Anubis AGIT baseline (Zubair & Awad, ISCA 2019)",
		Pipeline: Pipeline{
			Insert: InsertPreWPQ,
		},
	},
	{
		ID: DolosFull, Name: "dolos-full", Label: "Dolos-Full-WPQ",
		Aliases: []string{"DolosFull"},
		Paper:   "Dolos (MICRO 2021), Full-WPQ Mi-SU",
		Pipeline: Pipeline{
			Insert: InsertDolosSplit,
		},
	},
	{
		ID: DolosPartial, Name: "dolos-partial", Label: "Dolos-Partial-WPQ",
		Aliases: []string{"DolosPartial"},
		Paper:   "Dolos (MICRO 2021), Partial-WPQ Mi-SU",
		Pipeline: Pipeline{
			Insert: InsertDolosSplit,
		},
	},
	{
		ID: DolosPost, Name: "dolos-post", Label: "Dolos-Post-WPQ",
		Aliases: []string{"DolosPost"},
		Paper:   "Dolos (MICRO 2021), Post-WPQ Mi-SU",
		Pipeline: Pipeline{
			Insert: InsertDolosSplit,
		},
	},
	{
		ID: EADRSecure, Name: "eadr", Label: "eADR-Secure",
		Aliases: []string{"EADRSecure", "eadr_secure"},
		Paper:   "Dolos (MICRO 2021), eADR comparison point",
		Pipeline: Pipeline{
			Insert: InsertEADR,
		},
	},
	{
		ID: TriadNVM, Name: "triad-nvm", Label: "Triad-NVM",
		Aliases: []string{"TriadNVM", "triad"},
		Paper:   "Triad-NVM (Awad et al., ISCA 2019)",
		Pipeline: Pipeline{
			Insert: InsertPreWPQ,
			Policy: masu.Policy{
				CounterWriteThrough:    true,
				PartialTreePersistence: true,
				TreePersistLevels:      1,
			},
			ForceTree: masu.BMTEager, HasForceTree: true,
			Recovery:        RecoverReconstruct,
			ReportsRecovery: true,
		},
	},
	{
		ID: SuperMem, Name: "supermem", Label: "SuperMem",
		Aliases: []string{"super-mem"},
		Paper:   "SuperMem (Zuo et al., MICRO 2019)",
		Pipeline: Pipeline{
			Insert: InsertPreWPQ,
			Policy: masu.Policy{
				CounterWriteThrough:    true,
				CoalesceCounterWrites:  true,
				PartialTreePersistence: true,
				TreePersistLevels:      0,
			},
			ForceTree: masu.BMTEager, HasForceTree: true,
			Recovery:        RecoverReconstruct,
			ReportsRecovery: true,
		},
	},
	{
		ID: Phoenix, Name: "phoenix", Label: "Phoenix",
		Aliases: []string{},
		Paper:   "Phoenix (Alwadi et al., PACT 2022)",
		Pipeline: Pipeline{
			Insert:    InsertPreWPQ,
			ForceTree: masu.ToCLazy, HasForceTree: true,
			Recovery:        RecoverShadow,
			ReportsRecovery: true,
		},
	},
	{
		ID: STUM, Name: "stum", Label: "STUM",
		Aliases: []string{},
		Paper:   "STUM (Freij et al., MICRO 2021)",
		Pipeline: Pipeline{
			Insert: InsertPreWPQ,
			Policy: masu.Policy{
				StreamlinedTreeUpdates: true,
			},
			ForceTree: masu.BMTEager, HasForceTree: true,
			Recovery:        RecoverShadow,
			ReportsRecovery: true,
		},
	},
}

// aliasIndex maps every normalized accepted spelling to its entry index.
var aliasIndex = func() map[string]int {
	idx := make(map[string]int)
	add := func(s string, i int) {
		n := normalize(s)
		if prev, dup := idx[n]; dup && prev != i {
			panic(fmt.Sprintf("scheme: alias %q claimed by two entries", s))
		}
		idx[n] = i
	}
	for i, e := range entries {
		add(e.Name, i)
		add(e.Label, i)
		for _, a := range e.Aliases {
			add(a, i)
		}
	}
	return idx
}()

// normalize lowercases and strips the separators users mix freely.
func normalize(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		switch r {
		case '-', '_', ' ':
			return -1
		}
		return r
	}, s)
}

// All returns the registry in ID order. The slice is shared: callers
// must not mutate it.
func All() []Entry { return entries }

// ByID returns the registry entry for id.
func ByID(id ID) (Entry, bool) {
	if id < 0 || int(id) >= len(entries) {
		return Entry{}, false
	}
	return entries[id], true
}

// PipelineOf returns the security pipeline for a registered id; it
// panics on an ID outside the registry.
func PipelineOf(id ID) Pipeline { return entries[id].Pipeline }

// Names returns the canonical CLI names, sorted.
func Names() []string {
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// Parse resolves any accepted spelling — canonical name, figure label,
// Go identifier, with free case and -_/space separators — to its entry.
func Parse(name string) (Entry, error) {
	if i, ok := aliasIndex[normalize(name)]; ok {
		return entries[i], nil
	}
	return Entry{}, fmt.Errorf("unknown scheme %q (want one of %s)",
		name, strings.Join(Names(), ", "))
}
