// Package service turns the Dolos experiment layer into a long-lived
// simulation-as-a-service daemon: a bounded job queue and worker pool
// over internal/core's executor, one result table keyed by the
// canonical hash of a normalized request (a row is a key's single
// flight, then its cached result, mirroring the Runner's trace cache
// one level up), and a small stdlib-only HTTP API — submit a grid, poll
// its status, fetch the RunRecord JSON, scrape Prometheus metrics. See
// DESIGN.md §10.
package service

import (
	"bytes"
	"container/list"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"dolos/internal/cliutil"
	"dolos/internal/core"
	"dolos/internal/telemetry"
)

// Config sizes the server. The zero value is usable: every field has a
// production-sane default applied by New.
type Config struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker;
	// submissions beyond it are rejected with 429 (default 64).
	QueueDepth int
	// CacheEntries is how many settled rows the result table keeps,
	// least recently used evicted first (default 256).
	CacheEntries int
	// MaxBodyBytes bounds a request body (default 1 MiB).
	MaxBodyBytes int64
	// DefaultTimeout is the per-job deadline (queue wait + execution)
	// when the request does not set timeout_ms (default 2 minutes).
	DefaultTimeout time.Duration
	// Limits bounds what one request may ask for.
	Limits Limits
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	c.Limits = c.Limits.withDefaults()
	return c
}

// JobStatus is the lifecycle of a submitted job.
type JobStatus string

const (
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
)

// maxSettledJobs bounds how many settled jobs a server remembers; the
// oldest settled job is forgotten first. Queued and running jobs are
// never forgotten, so the job map holds at most this many plus the
// live ones. A forgotten id answers 404, as after a restart, and a
// client resubmits it (DESIGN.md §10).
const maxSettledJobs = 4096

// Job is one submitted request. Every field but its identity (id, seq,
// key, req, ctx, cancel, created, total) is guarded by the server mutex.
type Job struct {
	id  string
	seq int64
	key string
	req normalized

	ctx    context.Context
	cancel context.CancelFunc

	status  JobStatus
	cached  bool   // records came from a settled row or another job's flight
	errMsg  string // set when status == StatusFailed
	res     *entry // the row whose document is the result (status == StatusDone)
	created time.Time

	// Streaming state: the grid's per-cell RunRecord bytes (compact
	// JSON, indexed in cells() enumeration order; the row's records
	// once the job is done), how many of them have been broadcast in
	// order, and the live /v2 stream subscribers.
	total   int
	cells   [][]byte
	emitted int
	subs    map[chan streamEvent]bool
}

// entry is one row of the result table: a normalized request key's
// flight and, once it succeeds, its result. The row is in flight until
// done closes. Its leader sets err, or recs, doc and sum, before closing
// done, and none of them changes after.
type entry struct {
	key  string
	done chan struct{}
	err  error
	recs [][]byte          // per-cell compact RunRecords, cells() order
	doc  []byte            // the result document, assembled once per key
	sum  [sha256.Size]byte // checksum of recs and doc
	el   *list.Element     // the row's place in the LRU order once settled
}

// settled reports whether the row holds a result rather than a flight.
func (e *entry) settled() bool { return e.el != nil }

// results is the service's one result table: one row per normalized
// request key, so a key's single flight, cached records and result
// document are one object. Settled rows are evicted least recently used
// first beyond cap; a failed flight leaves the table, so a later
// submission retries it. Each lookup verifies a settled row's SHA-256:
// a corrupted row (bit rot, a stray write) is dropped and recomputed,
// never served to a new job. Every method runs under Server.mu.
type results struct {
	cap     int
	rows    map[string]*entry
	lru     *list.List         // settled rows, front = most recently used
	corrupt *telemetry.Counter // settled rows dropped by a failed checksum
}

func newResults(capacity int, corrupt *telemetry.Counter) *results {
	return &results{cap: capacity, rows: make(map[string]*entry), lru: list.New(), corrupt: corrupt}
}

// lookup returns key's row, or nil. A settled row is promoted to most
// recently used; one whose checksum no longer matches is dropped and
// counted instead, and lookup returns nil.
func (t *results) lookup(key string) *entry {
	e := t.rows[key]
	if e == nil || !e.settled() {
		return e
	}
	if checksum(e.recs, e.doc) != e.sum {
		t.remove(e)
		t.corrupt.Inc()
		return nil
	}
	t.lru.MoveToFront(e.el)
	return e
}

// claim returns key's row, settled or in flight, or inserts a new
// in-flight row that the caller must lead and publish. Because claim and
// publish run under the same mutex, no worker can miss both a key's
// result and its flight: that makes "exactly one simulation per key" a
// guarantee rather than a likelihood.
func (t *results) claim(key string) (e *entry, leader bool) {
	if e := t.lookup(key); e != nil {
		return e, false
	}
	e = &entry{key: key, done: make(chan struct{})}
	t.rows[key] = e
	return e, true
}

// publish settles the in-flight row e. A result takes the front of the
// LRU order, evicting the least recently used rows beyond cap; an error
// takes the row out of the table. The caller closes e.done after
// releasing Server.mu.
func (t *results) publish(e *entry, recs [][]byte, doc []byte, err error) {
	if err != nil {
		e.err = err
		delete(t.rows, e.key)
		return
	}
	e.recs, e.doc, e.sum = recs, doc, checksum(recs, doc)
	e.el = t.lru.PushFront(e)
	for t.lru.Len() > t.cap {
		t.remove(t.lru.Back().Value.(*entry))
	}
}

func (t *results) remove(e *entry) {
	t.lru.Remove(e.el)
	delete(t.rows, e.key)
}

// checksum hashes a row's records, each prefixed with its length so a
// byte moved across a record boundary changes the sum too, and then its
// document.
func checksum(recs [][]byte, doc []byte) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(n[:], uint64(len(r)))
		h.Write(n[:])
		h.Write(r)
	}
	h.Write(doc)
	return [sha256.Size]byte(h.Sum(nil))
}

// runnerKey identifies the core.Runner able to serve a request: trace
// generation is parameterized by (transactions, seed) at the Runner
// level, so each distinct pair gets its own runner (and trace cache).
type runnerKey struct {
	txns int
	seed int64
}

// Server owns the queue, worker pool, result table and metrics. Create
// with New, expose with Handler, stop with Shutdown.
type Server struct {
	cfg Config
	reg *telemetry.Registry
	// tag is this process's part of every job id, drawn once in New, so
	// a restarted server never hands out an id its predecessor used.
	tag string

	mu       sync.Mutex
	draining bool
	seq      int64
	jobs     map[string]*Job
	// settled is a ring of the retained settled jobs; next is the
	// oldest, forgotten when the next job settles.
	settled [maxSettledJobs]*Job
	next    int
	results *results
	runners map[runnerKey]*core.Runner

	queue     chan *Job
	wg        sync.WaitGroup
	drainOnce sync.Once

	final []byte // Prometheus snapshot rendered by Shutdown after drain

	// hookExecute, when set (tests only), runs at the top of every job
	// execution — used to hold workers in a known state or to panic.
	hookExecute func(*Job)
	// hookCell, when set (tests only), runs after cell i of a computed
	// job is broadcast, before the next cell starts.
	hookCell func(job *Job, i int)

	mSubmitted, mCompleted, mFailed, mRejected *telemetry.Counter
	mCacheHits, mCacheMisses, mDedupHits       *telemetry.Counter
	mSims, mPanics, mHTTP, mCorrupt            *telemetry.Counter
	mStreamEvents                              *telemetry.Counter
	gQueueDepth, gJobsRetained                 *telemetry.Gauge
	hJobSeconds                                *telemetry.CycleHist
}

// New builds a server and starts its worker pool. The server keeps its
// jobs in memory only, and at most maxSettledJobs settled ones: a
// restart or the retention bound forgets a job, and a client resubmits
// it (records are a pure function of the request, so the resubmission
// is exact). The server is live immediately; callers typically mount
// Handler on an http.Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := telemetry.NewRegistry()
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		tag:     newTag(),
		jobs:    make(map[string]*Job),
		runners: make(map[runnerKey]*core.Runner),
		queue:   make(chan *Job, cfg.QueueDepth),

		mSubmitted:    reg.Counter("service_jobs_submitted_total"),
		mCompleted:    reg.Counter("service_jobs_completed_total"),
		mFailed:       reg.Counter("service_jobs_failed_total"),
		mRejected:     reg.Counter("service_jobs_rejected_total"),
		mCacheHits:    reg.Counter("service_cache_hits_total"),
		mCacheMisses:  reg.Counter("service_cache_misses_total"),
		mDedupHits:    reg.Counter("service_dedup_hits_total"),
		mSims:         reg.Counter("service_sims_executed_total"),
		mPanics:       reg.Counter("service_panics_total"),
		mHTTP:         reg.Counter("service_http_requests_total"),
		mCorrupt:      reg.Counter("service_cache_corruptions_detected_total"),
		mStreamEvents: reg.Counter("service_stream_events_total"),
		gQueueDepth:   reg.Gauge("service_queue_depth"),
		gJobsRetained: reg.Gauge("service_jobs_retained"),
		hJobSeconds:   reg.CycleHist("service_job_seconds"),
	}
	s.results = newResults(cfg.CacheEntries, s.mCorrupt)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// newTag draws the per-process part of job ids: 48 random bits, so two
// incarnations of a server collide with odds of 2^-48. crypto/rand fails
// only without an OS entropy source; the clock still tells two
// processes apart then.
func newTag() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return strconv.FormatInt(time.Now().UnixNano(), 36)
	}
	return hex.EncodeToString(b[:])
}

// Registry exposes the server's metrics registry (scraped by /metrics;
// tests assert on it directly).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Shutdown gracefully stops the server: intake is closed (submissions
// get 503), queued and in-flight jobs drain to completion, and a final
// Prometheus metrics snapshot is rendered (FinalMetrics). It returns
// nil once every job has finished, or ctx.Err() if ctx expires first —
// workers are left to finish in the background in that case.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		// Submit sends cannot race the close: they happen under mu
		// with draining false.
		close(s.queue)
	})

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}

	var buf bytes.Buffer
	s.gQueueDepth.Set(0)
	if err := telemetry.WritePrometheus(&buf, telemetry.Snapshot(nil, s.reg)); err != nil {
		return err
	}
	s.mu.Lock()
	s.final = buf.Bytes()
	s.mu.Unlock()
	return nil
}

// FinalMetrics returns the metrics snapshot flushed by Shutdown (nil
// before a completed Shutdown).
func (s *Server) FinalMetrics() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.final
}

// submit registers a job for a normalized request. It returns the job
// in state done (submission-time cache hit), queued, or an error when
// the queue is full or the server is draining.
var (
	errDraining  = errors.New("server is shutting down")
	errQueueFull = errors.New("job queue is full")
)

func (s *Server) submit(n normalized, timeout time.Duration) (*Job, error) {
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	job := &Job{
		key:     n.Key(),
		req:     n,
		ctx:     ctx,
		cancel:  cancel,
		created: time.Now(),
		total:   len(n.Workloads) * len(n.Schemes),
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		s.mRejected.Inc()
		return nil, errDraining
	}
	s.seq++
	job.seq = s.seq
	job.id = fmt.Sprintf("j%s-%08d", s.tag, job.seq)

	e := s.results.lookup(job.key)
	hit := e != nil && e.settled()
	if hit {
		job.status = StatusRunning // finishJob settles it below
	} else {
		job.status = StatusQueued
		select {
		case s.queue <- job:
		default:
			s.mu.Unlock()
			cancel()
			s.mRejected.Inc()
			return nil, errQueueFull
		}
	}
	s.jobs[job.id] = job
	s.gJobsRetained.Set(float64(len(s.jobs)))
	s.mu.Unlock()
	s.mSubmitted.Inc()
	if hit {
		s.mCacheHits.Inc()
		s.finishJob(job, e, true)
	} else {
		s.gQueueDepth.Set(float64(len(s.queue)))
	}
	return job, nil
}

// job looks up a job by id.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// queuePosition returns the 1-based position of a queued job among all
// queued jobs (0 when the job is not queued).
func (s *Server) queuePosition(job *Job) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if job.status != StatusQueued {
		return 0
	}
	pos := 1
	for _, other := range s.jobs {
		if other.status == StatusQueued && other.seq < job.seq {
			pos++
		}
	}
	return pos
}

func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.gQueueDepth.Set(float64(len(s.queue)))
		s.execute(job)
	}
}

// execute runs one dequeued job to completion: a settled row, a
// single-flight follow, or leading the computation. A panic anywhere in
// the pipeline fails the job instead of killing the worker.
func (s *Server) execute(job *Job) {
	defer func() {
		if p := recover(); p != nil {
			s.mPanics.Inc()
			s.failJob(job, fmt.Errorf("panic: %v", p))
		}
	}()
	s.setStatus(job, StatusRunning)
	if s.hookExecute != nil {
		s.hookExecute(job)
	}

	for {
		if err := job.ctx.Err(); err != nil {
			s.failJob(job, err)
			return
		}
		s.mu.Lock()
		e, leader := s.results.claim(job.key)
		hit := e.settled()
		s.mu.Unlock()
		if hit {
			s.mCacheHits.Inc()
			s.finishJob(job, e, true)
			return
		}
		if leader {
			// A miss is counted when a computation actually starts, so
			// hits + dedup hits + misses partitions completed jobs and a
			// burst of identical submissions scores one miss, not N.
			s.mCacheMisses.Inc()
			recs, doc, err := s.computeGuarded(job)
			s.publish(e, recs, doc, err)
			if e.err != nil {
				s.failJob(job, e.err)
				return
			}
			s.finishJob(job, e, false)
			return
		}
		select {
		case <-e.done:
			if e.err == nil {
				s.mDedupHits.Inc()
				s.finishJob(job, e, true)
				return
			}
			// The leader failed. If its failure was its own deadline or
			// cancellation, it says nothing about this job — loop and
			// retry under our own context (we may become the leader).
			// Any other error is deterministic for the shared key, so
			// share it.
			if !errors.Is(e.err, context.Canceled) && !errors.Is(e.err, context.DeadlineExceeded) {
				s.failJob(job, e.err)
				return
			}
		case <-job.ctx.Done():
			s.failJob(job, job.ctx.Err())
			return
		}
	}
}

// publish completes a flight: the row settles and the followers are
// released.
func (s *Server) publish(e *entry, recs [][]byte, doc []byte, err error) {
	s.mu.Lock()
	s.results.publish(e, recs, doc, err)
	s.mu.Unlock()
	close(e.done)
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// computeGuarded is compute with panic containment local to the
// leader's computation: the panic becomes the flight's error, so
// followers are released with a cause instead of hanging until their
// deadlines.
func (s *Server) computeGuarded(job *Job) (recs [][]byte, doc []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.mPanics.Inc()
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return s.compute(job)
}

// compute runs the job's grid cell by cell on the shared runner and
// returns each cell's compact RunRecord in cells() order, and the result
// document assembled from them, once for the key. Each finished cell is
// pushed to /v2 stream subscribers before the next cell starts.
func (s *Server) compute(job *Job) ([][]byte, []byte, error) {
	cells := job.req.cells()
	recs := make([][]byte, len(cells))
	runner := s.runnerFor(job.req.Transactions, job.req.Seed)
	var encErr error
	_, err := runner.RunGridNotify(job.ctx, cells, func(i int, rr core.RunResult) {
		rec, err := encodeRecord(job.req, cells[i], rr)
		if err != nil {
			encErr = err
			return
		}
		s.mSims.Inc()
		recs[i] = rec
		s.recordCell(job, i, rec)
		if s.hookCell != nil {
			s.hookCell(job, i)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if encErr != nil {
		return nil, nil, encErr
	}
	for i, r := range recs {
		if r == nil {
			return nil, nil, fmt.Errorf("cell %d missing", i)
		}
	}
	doc, err := assembleResult(recs)
	return recs, doc, err
}

// encodeRecord builds one cell's RunRecord and marshals it compact —
// the canonical per-cell form the /v2 stream carries and the result
// table holds. assembleResult re-indents these into the result
// document.
func encodeRecord(n normalized, cell core.Cell, rr core.RunResult) ([]byte, error) {
	rec := cliutil.BuildRunRecord(rr.Result, cell.Spec.EffectiveTree(),
		cell.Spec.TxSize, n.Seed, rr.Events, rr.Wall, rr.Stats, nil)
	return json.Marshal(rec)
}

// assembleResult turns the per-cell compact records into the public
// result document through the encoder dolos-sim -json uses: one
// indented RunRecord object for a single cell, an indented array for a
// grid.
func assembleResult(recs [][]byte) ([]byte, error) {
	raws := make([]json.RawMessage, len(recs))
	for i, r := range recs {
		raws[i] = json.RawMessage(r)
	}
	var buf bytes.Buffer
	var err error
	if len(raws) == 1 {
		err = telemetry.WriteJSON(&buf, raws[0])
	} else {
		err = telemetry.WriteJSON(&buf, raws)
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runnerFor returns the shared runner for a (transactions, seed) pair.
// Sharing the runner is what extends trace single-flight across jobs:
// every job for the same pair replays the same generated traces. The
// runner executes its grid serially (Parallelism 1) — the worker pool,
// not the sweep executor, is the service's parallelism — so one giant
// grid job cannot monopolize every core.
func (s *Server) runnerFor(txns int, seed int64) *core.Runner {
	k := runnerKey{txns: txns, seed: seed}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runners[k]; ok {
		return r
	}
	// Bound the map: clients sweeping seeds would otherwise accumulate
	// a trace cache per seed forever. Dropping all runners only costs
	// trace regeneration, never correctness.
	if len(s.runners) >= 64 {
		s.runners = make(map[runnerKey]*core.Runner)
	}
	r := core.NewRunner(core.Options{Transactions: txns, Seed: seed, Parallelism: 1})
	s.runners[k] = r
	return r
}

func (s *Server) setStatus(job *Job, st JobStatus) {
	s.mu.Lock()
	job.status = st
	s.mu.Unlock()
}

// recordCell keeps one finished cell of a computing job and broadcasts
// it to stream subscribers.
func (s *Server) recordCell(job *Job, i int, rec []byte) {
	s.mu.Lock()
	if job.cells == nil {
		job.cells = make([][]byte, job.total)
	}
	job.cells[i] = rec
	s.emit(job)
	s.mu.Unlock()
}

// emit broadcasts the job's cells to its stream subscribers, strictly in
// index order: a cell completed out of order waits in job.cells until
// the gap fills. Called under s.mu.
func (s *Server) emit(job *Job) {
	for job.emitted < len(job.cells) && job.cells[job.emitted] != nil {
		ev := streamEvent{kind: eventCell, index: job.emitted, total: job.total, data: job.cells[job.emitted]}
		for ch := range job.subs {
			select {
			case ch <- ev:
			default: // buffer sized total+2: only an abandoned reader is ever full
			}
		}
		job.emitted++
		s.mStreamEvents.Inc()
	}
}

// finishJob settles a job on a settled row: the job takes the row's
// records and document, and cells it has not yet streamed (a settled
// row, a dedup follow) are broadcast in order.
func (s *Server) finishJob(job *Job, e *entry, cached bool) {
	s.mu.Lock()
	job.res = e
	job.cached = cached
	job.cells = e.recs
	s.emit(job)
	s.settle(job, StatusDone, streamEvent{kind: eventDone, total: job.total, cached: cached})
	s.mu.Unlock()
	job.cancel()
	s.mCompleted.Inc()
	s.hJobSeconds.Observe(time.Since(job.created).Seconds())
}

func (s *Server) failJob(job *Job, err error) {
	s.mu.Lock()
	job.errMsg = err.Error()
	s.settle(job, StatusFailed, streamEvent{kind: eventFailed, total: job.total, data: []byte(job.errMsg)})
	s.mu.Unlock()
	job.cancel()
	s.mFailed.Inc()
}

// settle gives a job its final status, ends its streams with ev and
// retains it among the settled jobs, forgetting the oldest settled job
// beyond maxSettledJobs. Called under s.mu.
func (s *Server) settle(job *Job, st JobStatus, ev streamEvent) {
	job.status = st
	for ch := range job.subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
	}
	job.subs = nil
	if old := s.settled[s.next]; old != nil {
		delete(s.jobs, old.id)
	}
	s.settled[s.next] = job
	s.next = (s.next + 1) % maxSettledJobs
	s.gJobsRetained.Set(float64(len(s.jobs)))
}
