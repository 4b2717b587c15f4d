package sim

// Handler completes a request: arg is the value the request was
// submitted with. Requesters pass a method value bound once at
// construction and carry everything else a completion needs in arg —
// typically a small index into a table of in-flight records (see Slab)
// — so submitting a request allocates nothing. A nil Handler is allowed
// and means no completion callback.
type Handler func(arg uint64)

// job is one in-flight request of a Server, PipeServer or Delay: its
// service window and its completion.
type job struct {
	start, end Cycle
	done       Handler
	arg        uint64
}

// jobRing holds in-flight jobs ordered by (end, submission order) —
// the exact order the engine fires their completion events in, because
// each job schedules one event at its end and the engine breaks cycle
// ties by scheduling order. Each firing of an owner's one bound
// completion callback therefore belongs to the ring's head, and the job
// rides in the ring instead of in a per-job closure. Ends are usually
// non-decreasing, so the ordered insert almost always appends at the
// tail. The ring rewinds when it empties and compacts (see Compact), so
// a run reuses one backing array even if its owner never idles.
type jobRing struct {
	a    []job
	head int
}

// insert adds j behind every job with an end at or before j's: equal
// ends keep submission order.
func (r *jobRing) insert(j job) {
	r.a, r.head = Compact(r.a, r.head)
	r.a = append(r.a, j)
	for i := len(r.a) - 1; i > r.head && r.a[i-1].end > j.end; i-- {
		r.a[i], r.a[i-1] = r.a[i-1], r.a[i]
	}
}

// pop removes and returns the head job.
func (r *jobRing) pop() job {
	j := r.a[r.head]
	r.a[r.head] = job{} // release the handler reference
	r.head++
	if r.head == len(r.a) {
		r.a = r.a[:0]
		r.head = 0
	}
	return j
}

// Delay calls a Handler a given number of cycles after each request,
// with the request's argument. It is the engine's After for completions
// that need an argument: one bound engine callback serves every request
// (see jobRing), where After would need a closure per request. Each
// request is one engine event scheduled at the moment of the request,
// so dispatch order is exactly that of the equivalent After calls.
type Delay struct {
	eng    *Engine
	ring   jobRing
	fireFn func()
}

// NewDelay returns a delay line on eng.
func NewDelay(eng *Engine) *Delay {
	d := &Delay{eng: eng}
	d.fireFn = d.fire
	return d
}

// After calls done(arg) delay cycles from now.
func (d *Delay) After(delay Cycle, done Handler, arg uint64) {
	at := d.eng.Now() + delay
	d.ring.insert(job{end: at, done: done, arg: arg})
	d.eng.At(at, d.fireFn)
}

func (d *Delay) fire() {
	if j := d.ring.pop(); j.done != nil {
		j.done(j.arg)
	}
}

// PipeServer models a pipelined functional unit (a MAC engine): a new
// job may start every initiation-interval cycles, and each job completes
// after its own latency. This captures Table 1's security engines, whose
// per-write latency (e.g. 10 x 160 cycles for an eager tree update) far
// exceeds their initiation interval (one new write per MAC stage).
type PipeServer struct {
	eng  *Engine
	name string
	ii   Cycle

	nextStart Cycle
	jobs      uint64
	onJob     func(name string, start, end Cycle)

	// pending holds the in-flight jobs; fireFn, bound once, is the
	// completion event every job schedules (see jobRing). Starts are
	// monotonic, so out-of-order ends (a long job submitted before a
	// short one) are rare.
	pending jobRing
	fireFn  func()
}

// NewPipeServer returns a pipelined server with the given initiation
// interval (minimum cycles between job starts).
func NewPipeServer(eng *Engine, name string, ii Cycle) *PipeServer {
	if ii == 0 {
		ii = 1
	}
	p := &PipeServer{eng: eng, name: name, ii: ii}
	p.fireFn = p.fire
	return p
}

// Name returns the diagnostic name.
func (p *PipeServer) Name() string { return p.name }

// Jobs returns how many jobs have been submitted.
func (p *PipeServer) Jobs() uint64 { return p.jobs }

// II returns the initiation interval.
func (p *PipeServer) II() Cycle { return p.ii }

// SetJobHook installs (or with nil removes) an observer invoked at each
// job's completion with its start and end cycles — the telemetry busy
// span. Observational only; it must not schedule events.
func (p *PipeServer) SetJobHook(fn func(name string, start, end Cycle)) { p.onJob = fn }

// NextStart returns the earliest cycle at which a job submitted now
// would start.
func (p *PipeServer) NextStart() Cycle {
	if p.nextStart > p.eng.Now() {
		return p.nextStart
	}
	return p.eng.Now()
}

// Submit enqueues a job with the given completion latency. done, if
// non-nil, is called with arg at start+latency.
func (p *PipeServer) Submit(latency Cycle, done Handler, arg uint64) {
	start := p.NextStart()
	p.nextStart = start + p.ii
	p.jobs++
	end := start + latency
	p.pending.insert(job{start: start, end: end, done: done, arg: arg})
	p.eng.At(end, p.fireFn)
}

// fire completes the in-flight job whose turn it is.
func (p *PipeServer) fire() {
	j := p.pending.pop()
	if p.onJob != nil {
		p.onJob(p.name, j.start, j.end)
	}
	if j.done != nil {
		j.done(j.arg)
	}
}

// Server models a serially-occupied resource (a security unit, an NVM
// channel): jobs queue FIFO and each occupies the server for its service
// time. It captures the serialization the paper attributes to the single
// security pipeline per memory controller.
type Server struct {
	eng  *Engine
	name string

	busyUntil Cycle
	// queue is a head-indexed deque of waiting jobs: pump consumes from
	// queue[qHead], and it rewinds when it empties and compacts (see
	// Compact), so the append in Submit reuses one backing array.
	queue []serverJob
	qHead int

	// inflight holds the started-but-not-completed jobs, and fireFn the
	// completion event each schedules (see jobRing). Service is serial,
	// so inflight almost always holds one job — but at the exact cycle
	// a job ends, an event ordered before its completion can Submit and
	// start the next job (the server is no longer busy), leaving two
	// completions outstanding. Starts are serialized, so ends are
	// non-decreasing and each insert appends.
	inflight jobRing
	fireFn   func()

	// Stats
	jobs      uint64
	busyTotal Cycle
	maxQueue  int

	onJob func(name string, start, end Cycle)
}

// serverJob is a job waiting for the server.
type serverJob struct {
	service Cycle
	done    Handler
	arg     uint64
}

// NewServer returns a server bound to the engine. The name is used only
// for diagnostics.
func NewServer(eng *Engine, name string) *Server {
	s := &Server{eng: eng, name: name}
	s.fireFn = s.fire
	return s
}

// Name returns the diagnostic name of the server.
func (s *Server) Name() string { return s.name }

// Busy reports whether the server is occupied at the current cycle.
func (s *Server) Busy() bool { return s.eng.Now() < s.busyUntil }

// QueueLen returns the number of jobs waiting (not including any in service).
func (s *Server) QueueLen() int { return len(s.queue) - s.qHead }

// Jobs returns the number of jobs that have started service.
func (s *Server) Jobs() uint64 { return s.jobs }

// BusyCycles returns the cumulative cycles spent in service.
func (s *Server) BusyCycles() Cycle { return s.busyTotal }

// MaxQueue returns the high-water mark of the wait queue.
func (s *Server) MaxQueue() int { return s.maxQueue }

// SetJobHook installs (or with nil removes) an observer invoked at each
// job's service completion with its start and end cycles (telemetry).
func (s *Server) SetJobHook(fn func(name string, start, end Cycle)) { s.onJob = fn }

// Submit enqueues a job requiring service cycles of occupancy. done, if
// non-nil, is called with arg at service completion. Jobs are served in
// submission order.
func (s *Server) Submit(service Cycle, done Handler, arg uint64) {
	s.queue, s.qHead = Compact(s.queue, s.qHead)
	s.queue = append(s.queue, serverJob{service: service, done: done, arg: arg})
	if n := s.QueueLen(); n > s.maxQueue {
		s.maxQueue = n
	}
	s.pump()
}

// FreeAt returns the cycle at which the server would start a job submitted
// now, considering the in-service job and queued work.
func (s *Server) FreeAt() Cycle {
	at := s.eng.Now()
	if s.busyUntil > at {
		at = s.busyUntil
	}
	for _, j := range s.queue[s.qHead:] {
		at += j.service
	}
	return at
}

func (s *Server) pump() {
	if s.qHead == len(s.queue) || s.Busy() {
		return
	}
	w := s.queue[s.qHead]
	s.queue[s.qHead] = serverJob{}
	s.qHead++
	if s.qHead == len(s.queue) {
		s.queue = s.queue[:0]
		s.qHead = 0
	}
	start := s.eng.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	end := start + w.service
	s.busyUntil = end
	s.jobs++
	s.busyTotal += w.service
	s.inflight.insert(job{start: start, end: end, done: w.done, arg: w.arg})
	s.eng.At(end, s.fireFn)
}

// fire completes the oldest in-flight job and starts the next queued one.
func (s *Server) fire() {
	j := s.inflight.pop()
	if s.onJob != nil {
		s.onJob(s.name, j.start, j.end)
	}
	if j.done != nil {
		j.done(j.arg)
	}
	s.pump()
}

// Slab is a table of in-flight request records that reuses freed rows:
// a requester puts a record when it issues a request and takes it back
// (or frees its row) when the request completes, and the row index is
// the argument the request's Handler receives. Once the table has grown
// to the peak number of requests in flight, it allocates nothing. A
// freed row keeps its old contents until it is reused.
type Slab[T any] struct {
	rows []T
	free []uint32
}

// Put stores v in a free row and returns the row's index.
func (s *Slab[T]) Put(v T) uint64 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.rows[i] = v
		return uint64(i)
	}
	s.rows = append(s.rows, v)
	return uint64(len(s.rows) - 1)
}

// At returns the record in row i, which must be in use. The pointer
// refers to the table only until the next Put, which may move it.
func (s *Slab[T]) At(i uint64) *T { return &s.rows[i] }

// Take returns the record in row i and frees the row.
func (s *Slab[T]) Take(i uint64) T {
	s.free = append(s.free, uint32(i))
	return s.rows[i]
}

// Free frees row i.
func (s *Slab[T]) Free(i uint64) { s.free = append(s.free, uint32(i)) }
