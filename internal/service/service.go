// Package service turns the Dolos experiment layer into a long-lived
// simulation-as-a-service daemon: a bounded job queue and worker pool
// over internal/core's executor, an LRU result cache keyed by the
// canonical hash of a normalized request with single-flight
// deduplication (mirroring the Runner's trace cache one level up), and
// a small stdlib-only HTTP API — submit a grid, poll its status, fetch
// the RunRecord JSON, scrape Prometheus metrics. See DESIGN.md §10.
package service

import (
	"bytes"
	"context"
	"crypto/rand"
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
	// CacheEntries is the LRU result-cache capacity (default 256).
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

// Job is one submitted request. All mutable fields are guarded by the
// server mutex; result bytes are immutable once set.
type Job struct {
	id  string
	seq int64
	key string
	req normalized

	ctx    context.Context
	cancel context.CancelFunc

	status  JobStatus
	cached  bool   // records came from the cache or a deduplicated flight
	errMsg  string // set when status == StatusFailed
	result  []byte // RunRecord JSON (object for one cell, array for a grid), assembled at settle
	created time.Time

	// Streaming state: the grid's per-cell RunRecord bytes (compact
	// JSON, indexed in cells() enumeration order), how many of them have
	// been broadcast in order, and the live /v2 stream subscribers.
	total   int
	cells   [][]byte
	emitted int
	subs    map[chan streamEvent]bool
}

// flight is one single-flight slot: the first worker to take a key
// computes; every concurrent worker with the same key blocks on done
// and shares the identical per-cell records.
type flight struct {
	done chan struct{}
	recs [][]byte
	err  error
}

// runnerKey identifies the core.Runner able to serve a request: trace
// generation is parameterized by (transactions, seed) at the Runner
// level, so each distinct pair gets its own runner (and trace cache).
type runnerKey struct {
	txns int
	seed int64
}

// Server owns the queue, worker pool, caches and metrics. Create with
// New, expose with Handler, stop with Shutdown.
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
	flights  map[string]*flight
	runners  map[runnerKey]*core.Runner

	queue     chan *Job
	wg        sync.WaitGroup
	drainOnce sync.Once

	cache *lruCache
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
	gQueueDepth                                *telemetry.Gauge
	hJobSeconds                                *telemetry.CycleHist
}

// New builds a server and starts its worker pool. The server keeps its
// jobs in memory only: a restart forgets them, and a client resubmits
// (records are a pure function of the request, so the resubmission is
// exact). The server is live immediately; callers typically mount
// Handler on an http.Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := telemetry.NewRegistry()
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		tag:     newTag(),
		jobs:    make(map[string]*Job),
		flights: make(map[string]*flight),
		runners: make(map[runnerKey]*core.Runner),
		queue:   make(chan *Job, cfg.QueueDepth),
		cache:   newLRU(cfg.CacheEntries),

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
		hJobSeconds:   reg.CycleHist("service_job_seconds"),
	}
	s.cache.onCorrupt = func(string) { s.mCorrupt.Inc() }
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
		subs:    make(map[chan streamEvent]bool),
	}
	job.cells = make([][]byte, job.total)

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

	if recs, ok := s.cache.Get(job.key); ok {
		job.status = StatusRunning // finishJob settles it below
		s.jobs[job.id] = job
		s.mu.Unlock()
		s.mSubmitted.Inc()
		s.mCacheHits.Inc()
		s.finishJob(job, recs, true)
		return job, nil
	}

	job.status = StatusQueued
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		cancel()
		s.mRejected.Inc()
		return nil, errQueueFull
	}
	s.jobs[job.id] = job
	s.mu.Unlock()
	s.mSubmitted.Inc()
	s.gQueueDepth.Set(float64(len(s.queue)))
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

// execute runs one dequeued job to completion: cache hit, single-flight
// follow, or leading the computation. A panic anywhere in the pipeline
// fails the job instead of killing the worker.
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
		recs, f, leader := s.claim(job.key)
		if recs != nil {
			s.mCacheHits.Inc()
			s.finishJob(job, recs, true)
			return
		}
		if leader {
			// A miss is counted when a computation actually starts, so
			// hits + dedup hits + misses partitions completed jobs and a
			// burst of identical submissions scores one miss, not N.
			s.mCacheMisses.Inc()
			recs, err := s.computeGuarded(job)
			s.publish(job.key, f, recs, err)
			if err != nil {
				s.failJob(job, err)
				return
			}
			s.finishJob(job, recs, false)
			return
		}
		select {
		case <-f.done:
			if f.err == nil {
				s.mDedupHits.Inc()
				s.finishJob(job, f.recs, true)
				return
			}
			// The leader failed. If its failure was its own deadline or
			// cancellation, it says nothing about this job — loop and
			// retry under our own context (we may become the leader).
			// Any other error is deterministic for the shared key, so
			// share it.
			if !errors.Is(f.err, context.Canceled) && !errors.Is(f.err, context.DeadlineExceeded) {
				s.failJob(job, f.err)
				return
			}
		case <-job.ctx.Done():
			s.failJob(job, job.ctx.Err())
			return
		}
	}
}

// claim resolves a key under one lock acquisition: a cached result, an
// existing flight to follow, or a brand-new flight the caller must
// lead. Holding the server mutex across the cache probe and the flight
// map keeps the pair atomic with publish, which installs the cache
// entry and retires the flight under the same mutex — so there is no
// window in which a worker can miss the cache and also miss the flight,
// which is what makes "exactly one simulation per key" a guarantee
// rather than a likelihood.
func (s *Server) claim(key string) (recs [][]byte, f *flight, leader bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if recs, ok := s.cache.Get(key); ok {
		return recs, nil, false
	}
	if f, ok := s.flights[key]; ok {
		return nil, f, false
	}
	f = &flight{done: make(chan struct{})}
	s.flights[key] = f
	return nil, f, true
}

// publish completes a flight: the result enters the cache and the
// flight leaves the map atomically (see claim), then followers are
// released. Failed computations are not cached — errors are retryable
// by a later submission.
func (s *Server) publish(key string, f *flight, recs [][]byte, err error) {
	s.mu.Lock()
	if err == nil {
		s.cache.Put(key, recs)
	}
	f.recs, f.err = recs, err
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
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
func (s *Server) computeGuarded(job *Job) (recs [][]byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.mPanics.Inc()
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return s.compute(job)
}

// compute runs the job's grid cell by cell on the shared runner and
// returns each cell's compact RunRecord in cells() order. Each finished
// cell is pushed to /v2 stream subscribers before the next cell starts.
func (s *Server) compute(job *Job) ([][]byte, error) {
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
		return nil, err
	}
	if encErr != nil {
		return nil, encErr
	}
	for i, r := range recs {
		if r == nil {
			return nil, fmt.Errorf("cell %d missing", i)
		}
	}
	return recs, nil
}

// encodeRecord builds one cell's RunRecord and marshals it compact —
// the canonical per-cell form the /v2 stream carries, the flights share
// and the cache holds. assembleResult re-indents these into the result
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

// recordCell keeps one finished cell and broadcasts it to stream
// subscribers. Broadcasts are strictly in index order; out-of-order
// completions wait in job.cells until the gap fills.
func (s *Server) recordCell(job *Job, i int, rec []byte) {
	s.mu.Lock()
	if job.cells[i] == nil {
		job.cells[i] = rec
	}
	for job.emitted < job.total && job.cells[job.emitted] != nil {
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
	s.mu.Unlock()
}

// finishJob settles a job from its per-cell records: cells it has not
// yet streamed (a cache hit, a dedup follow) are broadcast in order,
// and the result document is assembled once.
func (s *Server) finishJob(job *Job, recs [][]byte, cached bool) {
	result, err := assembleResult(recs)
	if err != nil {
		s.failJob(job, err)
		return
	}
	for i, rec := range recs {
		s.recordCell(job, i, rec)
	}
	s.mu.Lock()
	job.status = StatusDone
	job.result = result
	job.cached = cached
	subs := job.subs
	job.subs = nil
	ev := streamEvent{kind: eventDone, total: job.total, cached: cached}
	for ch := range subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
	}
	s.mu.Unlock()
	job.cancel()
	s.mCompleted.Inc()
	s.hJobSeconds.Observe(time.Since(job.created).Seconds())
}

func (s *Server) failJob(job *Job, err error) {
	s.mu.Lock()
	job.status = StatusFailed
	job.errMsg = err.Error()
	subs := job.subs
	job.subs = nil
	ev := streamEvent{kind: eventFailed, total: job.total, data: []byte(err.Error())}
	for ch := range subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
	}
	s.mu.Unlock()
	job.cancel()
	s.mFailed.Inc()
}
