package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dolos/internal/cliutil"
	"dolos/internal/core"
	"dolos/internal/whisper"
)

// Request is the JSON body of POST /v2/jobs: a grid (workloads ×
// schemes) or a single cell when both lists have one element. Every
// field is optional; zero values take the same defaults the CLI tools
// use, so an empty body is a valid one-cell job.
type Request struct {
	// Workloads and Schemes enumerate the grid. Scheme names accept
	// every spelling the CLI does (dolos-partial, DolosPartial,
	// Dolos-Partial-WPQ); workload names are case-insensitive.
	Workloads []string `json:"workloads,omitempty"`
	Schemes   []string `json:"schemes,omitempty"`
	// Tree selects the integrity backend: "eager" (BMT) or "lazy" (ToC).
	Tree string `json:"tree,omitempty"`
	// Transactions per workload run (default 200, capped by the
	// server's Limits).
	Transactions int `json:"transactions,omitempty"`
	// TxSize is the per-transaction payload in bytes (default 1024).
	TxSize int `json:"tx_size,omitempty"`
	// Seed fixes the workload operation stream (default 1).
	Seed int64 `json:"seed,omitempty"`
	// WPQ is the hardware write-pending-queue size (default 16).
	WPQ int `json:"wpq,omitempty"`
	// NoCoalesce disables WPQ write coalescing.
	NoCoalesce bool `json:"no_coalesce,omitempty"`
	// TimeoutMS bounds the job (queue wait + execution). 0 uses the
	// server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Limits bounds what a single request may ask for; oversized requests
// are rejected at submission instead of occupying the queue.
type Limits struct {
	// MaxTransactions caps Request.Transactions (default 20000).
	MaxTransactions int
	// MaxCells caps len(Workloads) × len(Schemes) (default 64).
	MaxCells int
}

func (l Limits) withDefaults() Limits {
	if l.MaxTransactions == 0 {
		l.MaxTransactions = cliutil.MaxTransactions
	}
	if l.MaxCells == 0 {
		l.MaxCells = 64
	}
	return l
}

// normalized is the canonical form of a request: defaults applied and
// every name resolved to its one canonical spelling. Two requests for
// the same deterministic computation normalize identically no matter
// which aliases, cases or implicit defaults they used — which is what
// makes Key a sound result-cache key. encoding/json marshals struct
// fields in declaration order, so the JSON encoding of this struct is
// itself canonical. TimeoutMS is deliberately absent: a deadline bounds
// the job, it does not change the simulated result.
type normalized struct {
	Workloads    []string `json:"workloads"`
	Schemes      []string `json:"schemes"`
	Tree         string   `json:"tree"`
	Transactions int      `json:"transactions"`
	TxSize       int      `json:"tx_size"`
	Seed         int64    `json:"seed"`
	WPQ          int      `json:"wpq"`
	NoCoalesce   bool     `json:"no_coalesce"`
}

// normalize validates a request against the limits and returns its
// canonical form. List order is preserved (it determines result order),
// so the same cells in a different order are a different — but equally
// correct — cache entry.
func normalize(req Request, lim Limits) (normalized, error) {
	lim = lim.withDefaults()
	n := normalized{
		Tree:         req.Tree,
		Transactions: req.Transactions,
		TxSize:       req.TxSize,
		Seed:         req.Seed,
		WPQ:          req.WPQ,
		NoCoalesce:   req.NoCoalesce,
	}
	if n.Tree == "" {
		n.Tree = "eager"
	}
	if _, err := cliutil.ParseTree(n.Tree); err != nil {
		return normalized{}, err
	}
	if n.Transactions == 0 {
		n.Transactions = 200
	}
	if err := cliutil.CheckRange("transactions", n.Transactions, 1, lim.MaxTransactions); err != nil {
		return normalized{}, err
	}
	if n.TxSize == 0 {
		n.TxSize = 1024
	}
	if err := cliutil.CheckRange("tx_size", n.TxSize, cliutil.MinTxSize, cliutil.MaxTxSize); err != nil {
		return normalized{}, err
	}
	if n.Seed == 0 {
		n.Seed = 1
	}
	if n.WPQ == 0 {
		n.WPQ = 16
	}
	if err := cliutil.CheckRange("wpq", n.WPQ, cliutil.MinWPQ, cliutil.MaxWPQ); err != nil {
		return normalized{}, err
	}

	workloads := req.Workloads
	if len(workloads) == 0 {
		workloads = []string{"Hashmap"}
	}
	for _, wl := range workloads {
		// Any case or hyphenation the façade's ParseWorkload accepts
		// resolves to the spelling whisper.Names uses. The error wraps
		// whisper.ErrUnknown, which the handler maps to HTTP 400.
		canon, err := whisper.Resolve(wl)
		if err != nil {
			return normalized{}, err
		}
		// A run whose trace could overflow the persistent heap would
		// panic in generation; reject it here, as the CLIs do.
		w, _ := whisper.ByName(canon)
		if err := whisper.CheckHeap(w, whisper.Params{Transactions: n.Transactions, TxSize: n.TxSize}); err != nil {
			return normalized{}, err
		}
		n.Workloads = append(n.Workloads, canon)
	}

	schemes := req.Schemes
	if len(schemes) == 0 {
		schemes = []string{"dolos-partial"}
	}
	for _, s := range schemes {
		sch, err := cliutil.ParseScheme(s)
		if err != nil {
			return normalized{}, err
		}
		n.Schemes = append(n.Schemes, sch.String())
	}

	if cells := len(n.Workloads) * len(n.Schemes); cells > lim.MaxCells {
		return normalized{}, fmt.Errorf("grid of %d cells exceeds the per-request limit of %d",
			cells, lim.MaxCells)
	}
	return n, nil
}

// Key returns the canonical cache key: the hex SHA-256 of the canonical
// JSON encoding.
func (n normalized) Key() string {
	b, err := json.Marshal(n)
	if err != nil {
		// normalized holds only strings, ints and bools; Marshal cannot
		// fail on it.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cells enumerates the grid in result order: workloads outer, schemes
// inner — the same nesting every experiment table in internal/core uses.
func (n normalized) cells() []core.Cell {
	cells := make([]core.Cell, 0, len(n.Workloads)*len(n.Schemes))
	for _, wl := range n.Workloads {
		for _, s := range n.Schemes {
			sch, err := cliutil.ParseScheme(s)
			if err != nil {
				panic(err) // canonical names always parse
			}
			tree, err := cliutil.ParseTree(n.Tree)
			if err != nil {
				panic(err)
			}
			cells = append(cells, core.Cell{
				Workload: wl,
				Spec: core.Spec{
					Scheme:            sch,
					Tree:              tree,
					TxSize:            n.TxSize,
					HardwareWPQ:       n.WPQ,
					DisableCoalescing: n.NoCoalesce,
				},
			})
		}
	}
	return cells
}
