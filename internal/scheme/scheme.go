// Package scheme is the central registry of secure-memory controller
// configurations. It owns the Scheme identifier that used to live in
// internal/controller, and generalizes the hard-coded Mi-SU/Ma-SU switch
// into a declarative security Pipeline per scheme: which insert path a
// write takes before the persistence domain (pre-persist), how metadata
// is persisted behind it (post-persist policy on the Ma-SU), and how the
// platform recovers after power loss.
//
// Besides the Dolos paper's own designs, the registry carries the
// related-work competitors the paper was published against, each as a
// first-class entry that runs on the same controller, workloads, crash
// driver and attack suites:
//
//   - Triad-NVM (Awad et al., ISCA 2019): persist counters on every
//     write plus the first N Merkle-tree levels; recovery rebuilds the
//     remaining levels from the persisted frontier, trading recovery
//     time for runtime.
//   - SuperMem (Zuo et al., MICRO 2019): a write-through counter cache
//     with counter-atomicity (data+counter persisted as one unit, one
//     serialized MAC) and cross-bank counter-write coalescing; the tree
//     stays volatile and is reconstructed at boot.
//   - Phoenix (Alwadi et al., PACT 2022): a persistently-secure counter
//     tree — the repo's lazy ToC backend with shadow-tracked updates is
//     exactly that design, so Phoenix forces the ToC backend on the
//     baseline insert path.
//   - STUM (Freij et al., MICRO 2021): streamlined/coalesced BMT
//     updates — ancestor MAC updates shared with the immediately
//     preceding write's path merge into the in-flight update instead of
//     serializing again.
package scheme

import (
	"fmt"

	"dolos/internal/misu"
)

// ID identifies a secure-memory controller configuration. The first six
// values mirror the original internal/controller enum bit-for-bit (the
// controller aliases them back), so persisted records and external
// callers observe no change.
type ID int

const (
	// NonSecureADR is the infeasible ideal: persist first, secure later
	// at zero run-time cost.
	NonSecureADR ID = iota
	// PreWPQSecure is the baseline: security before the WPQ.
	PreWPQSecure
	// DolosFull is Dolos with the Full-WPQ Mi-SU.
	DolosFull
	// DolosPartial is Dolos with the Partial-WPQ Mi-SU.
	DolosPartial
	// DolosPost is Dolos with the Post-WPQ Mi-SU.
	DolosPost
	// EADRSecure models the extended-ADR platform the paper's
	// introduction weighs Dolos against: the entire cache hierarchy is
	// inside the persistence domain, so a store is persistent the moment
	// it retires and flushes/fences cost nothing. Security work happens
	// on eviction, off every critical path. The catch is platform cost —
	// eADR needs "non-standard extensions, high costs, and
	// environment-unfriendly batteries"; Dolos' point is approaching
	// this bound within the standard ADR budget.
	EADRSecure
	// TriadNVM persists counters plus the first N BMT levels
	// (selective tree-level persistence); recovery reconstructs the
	// volatile remainder from the persisted frontier.
	TriadNVM
	// SuperMem uses a write-through counter cache with counter-atomicity
	// and cross-bank counter-write coalescing; the BMT is fully volatile
	// and rebuilt at recovery.
	SuperMem
	// Phoenix keeps the counter tree itself persistently secure — the
	// lazy ToC backend with shadow-tracked updates.
	Phoenix
	// STUM streamlines BMT updates: ancestor MACs shared with the
	// previous write's update path coalesce instead of serializing.
	STUM
)

// String returns the scheme name as used in the figures: its registry
// entry's Label.
func (s ID) String() string {
	if e, ok := ByID(s); ok {
		return e.Label
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// IsDolos reports whether the scheme uses the split Mi-SU/Ma-SU design.
func (s ID) IsDolos() bool {
	return s == DolosFull || s == DolosPartial || s == DolosPost
}

// MiSUDesign maps a Dolos scheme to its Mi-SU design.
func (s ID) MiSUDesign() misu.Design {
	switch s {
	case DolosFull:
		return misu.FullWPQ
	case DolosPartial:
		return misu.PartialWPQ
	case DolosPost:
		return misu.PostWPQ
	}
	panic("scheme: not a Dolos scheme")
}
