package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dolos/internal/cliutil"
	"dolos/internal/core"
	"dolos/internal/scheme"
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
// every name resolved to its one canonical value. Two requests for
// the same deterministic computation normalize identically no matter
// which aliases, cases or implicit defaults they used — which is what
// makes Key a sound result-cache key. encoding/json marshals struct
// fields in declaration order, so the JSON encoding of this struct is
// itself canonical. TimeoutMS is deliberately absent: a deadline bounds
// the job, it does not change the simulated result. Spec is every
// cell's spec but for its scheme, with core's defaults applied.
type normalized struct {
	Workloads    []string    `json:"workloads"`
	Schemes      []scheme.ID `json:"schemes"`
	Transactions int         `json:"transactions"`
	Seed         int64       `json:"seed"`
	Spec         core.Spec   `json:"spec"`
}

// normalize validates a request against the limits and returns its
// canonical form. List order is preserved (it determines result order),
// so the same cells in a different order are a different — but equally
// correct — cache entry. The model's own rules (payload, WPQ, heap fit)
// are core.CheckCell's, checked once per workload.
func normalize(req Request, lim Limits) (normalized, error) {
	lim = lim.withDefaults()
	n := normalized{Transactions: req.Transactions, Seed: req.Seed}
	if n.Transactions == 0 {
		n.Transactions = 200
	}
	if err := cliutil.CheckRange("transactions", n.Transactions, 1, lim.MaxTransactions); err != nil {
		return normalized{}, err
	}
	if n.Seed == 0 {
		n.Seed = 1
	}
	tree := req.Tree
	if tree == "" {
		tree = "eager"
	}
	kind, err := cliutil.ParseTree(tree)
	if err != nil {
		return normalized{}, err
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
		n.Schemes = append(n.Schemes, sch)
	}

	workloads := req.Workloads
	if len(workloads) == 0 {
		workloads = []string{"Hashmap"}
	}
	if cells := len(workloads) * len(n.Schemes); cells > lim.MaxCells {
		return normalized{}, fmt.Errorf("grid of %d cells exceeds the per-request limit of %d",
			cells, lim.MaxCells)
	}
	opts := core.Options{Transactions: n.Transactions, Seed: n.Seed}
	spec := core.Spec{Tree: kind, TxSize: req.TxSize, HardwareWPQ: req.WPQ, DisableCoalescing: req.NoCoalesce}
	for _, wl := range workloads {
		// Any case or hyphenation the façade's ParseWorkload accepts
		// resolves to the spelling whisper.Names uses; an unknown name's
		// error wraps whisper.ErrUnknown, which the handler maps to
		// HTTP 400 like every other error here.
		canon, checked, err := core.CheckCell(opts, wl, spec)
		if err != nil {
			return normalized{}, err
		}
		n.Workloads = append(n.Workloads, canon)
		n.Spec = checked
	}
	return n, nil
}

// Key returns the canonical cache key: the hex SHA-256 of the canonical
// JSON encoding.
func (n normalized) Key() string {
	b, err := json.Marshal(n)
	if err != nil {
		// normalized holds only strings, integers and bools; Marshal
		// cannot fail on it.
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
			spec := n.Spec
			spec.Scheme = s
			cells = append(cells, core.Cell{Workload: wl, Spec: spec})
		}
	}
	return cells
}
