// Package serve is a long-running QR factorization job service on top of
// the runtime and the paper's scheduler: the serving skeleton of the
// repository.
//
// Requests enter a bounded admission queue (Submit rejects with
// ErrOverloaded when it is full — backpressure instead of unbounded
// buffering), are routed to a size class keyed by (rows, cols, tile,
// tree), and are micro-batched: small same-class jobs that arrive within
// one batching window execute as a single tiled run in one manager loop
// (runtime.ExecuteBatch), filling the workers the way one large matrix
// would. Each size class resolves the paper's scheduling pipeline exactly
// once: Algorithms 2–4 (main device selection, device-count optimization,
// guide-array distribution) run against the modelled platform and the
// resulting sched.Plan is cached, with the chosen device count p driving
// the worker parallelism of that class's batches — scheduler-driven
// placement for an online service.
//
// Every job carries a context.Context: cancellation and deadlines
// propagate into the runtime's task-dispatch loop, so an expired job
// stops consuming CPU after at most the kernels in flight. Close drains
// gracefully: accepted jobs finish, new submissions are refused.
//
// Observability: pass a metrics.Registry in Config.Metrics to get the
// serve.* metrics (queue depth and peak, admission rejects, batch size
// distribution, per-class latency histograms) alongside the runtime.* and
// sched.* metrics of the underlying layers. See cmd/qrserve for the HTTP
// front end and the closed-loop load generator.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/tiled"
)

// Typed admission errors. Submit returns ErrOverloaded when the admission
// queue is full, ErrClosed once Close has begun, ErrDuplicateID when a
// client-supplied job id is already taken (the idempotency-key contract:
// the HTTP layer maps it to 409, and a retrying router interprets it as
// "already accepted — poll instead of resubmitting"), and ErrPersist when
// the job store could not make an accepted job durable. All are sentinel
// values for errors.Is.
var (
	ErrOverloaded  = errors.New("serve: overloaded, admission queue full")
	ErrClosed      = errors.New("serve: server closed")
	ErrDuplicateID = errors.New("serve: duplicate job id")
	ErrPersist     = errors.New("serve: job store write failed")
)

// srvIDPrefix namespaces server-assigned store keys ("srv-<n>") away from
// client-supplied idempotency keys, so a purely-numeric client id can never
// collide with the decimal counter of an id-less job. Client ids starting
// with the prefix are rejected at admission to keep the namespaces disjoint.
const srvIDPrefix = "srv-"

// RetryableError marks a job failure the client may retry as-is: the job's
// retry budget was exhausted by transient faults, a kernel panicked, or a
// device was lost mid-run — the input itself is fine and a resubmission is
// expected to succeed. The HTTP layer maps it to 503 with a Retry-After of
// After; test with errors.As.
type RetryableError struct {
	Err   error
	After time.Duration
}

func (e *RetryableError) Error() string {
	return fmt.Sprintf("serve: retryable failure (retry after %v): %v", e.After, e.Err)
}

func (e *RetryableError) Unwrap() error { return e.Err }

// Metric names exported by the service.
const (
	// MetricSubmitted counts Submit calls; MetricAccepted the ones that
	// entered the queue; MetricRejects the ones refused with ErrOverloaded.
	MetricSubmitted = "serve.submitted"
	MetricAccepted  = "serve.accepted"
	MetricRejects   = "serve.admission_rejects"
	// MetricQueueDepth is the admission-queue depth sampled at every
	// enqueue/dequeue; MetricQueuePeak its high-water mark.
	MetricQueueDepth = "serve.queue_depth"
	MetricQueuePeak  = "serve.queue_peak"
	// MetricBatches counts executed batches; MetricBatchSize is the
	// distribution of jobs per batch (mean > 1 means batching is working).
	MetricBatches   = "serve.batches"
	MetricBatchSize = "serve.batch_size"
	// MetricJobsDone / MetricJobsFailed count completed jobs by outcome
	// (failed = cancelled, deadline-exceeded, or execution error).
	MetricJobsDone   = "serve.jobs_done"
	MetricJobsFailed = "serve.jobs_failed"
	// MetricJobUS is the per-class end-to-end job latency histogram
	// (`serve.job_us{class=64x64/b16/flat-ts}`, µs, admission to result);
	// MetricQueueWaitUS the admission-to-execution wait histogram.
	MetricJobUS       = "serve.job_us"
	MetricQueueWaitUS = "serve.queue_wait_us"
	// MetricClasses is the number of distinct size classes seen (gauge);
	// MetricPlanP records each class's Algorithm 3 device count
	// (`serve.plan_p{class=...}`, gauge) — the placement decision driving
	// that class's batch parallelism.
	MetricClasses = "serve.classes"
	MetricPlanP   = "serve.plan_p"
	// MetricDeviceDrops counts batch workers lost to injected device drops;
	// MetricReplans counts the class replans they triggered (Algorithms 2–4
	// re-run over the surviving devices via sched.Replan).
	MetricDeviceDrops = "serve.device_drops"
	MetricReplans     = "serve.replans"
	// MetricDuplicates counts submissions rejected for reusing a client job
	// id; MetricRecovered counts jobs replayed from the store at startup.
	MetricDuplicates = "serve.duplicate_rejects"
	MetricRecovered  = "serve.recovered_jobs"
)

// Config configures a Server. The zero value is usable: every field has a
// serving-oriented default.
type Config struct {
	// QueueCapacity bounds the admission queue; Submit rejects with
	// ErrOverloaded beyond it. Default 64.
	QueueCapacity int
	// Executors is the number of concurrent batch executors. Default 2.
	Executors int
	// MaxBatch caps the jobs per micro-batch. Default 8; 1 disables
	// batching.
	MaxBatch int
	// BatchWindow is how long an under-full batch waits for same-class
	// company before executing anyway. Default 2ms.
	BatchWindow time.Duration
	// SmallTiles is the batching-eligibility threshold: jobs whose tile
	// grid (Mt×Nt) exceeds it run as singleton batches immediately.
	// Default 128 tiles.
	SmallTiles int
	// Workers forces the kernel-worker count per batch run; 0 derives it
	// from each class's cached plan (Algorithm 3's device count p).
	Workers int
	// DefaultTileSize applies when a submission leaves TileSize zero.
	// Default 16 (the paper's tile size).
	DefaultTileSize int
	// Platform is the modelled platform the per-class scheduling pipeline
	// runs against. Default hetqr's PaperPlatform.
	Platform *device.Platform
	// Metrics receives the serve.*, runtime.* and sched.* metrics; nil
	// disables instrumentation.
	Metrics *metrics.Registry
	// Retain bounds how many finished jobs stay queryable by ID (for the
	// HTTP status endpoints). Default 1024.
	Retain int
	// Faults, when non-nil, injects faults into every batch execution (the
	// chaos mode of qrserve -selftest -chaos); Retry bounds the task-level
	// retries of the retryable ones (zero selects fault.DefaultRetryPolicy
	// when Faults is set). A worker lost to an injected drop additionally
	// replans its size class over the surviving devices.
	Faults *fault.Injector
	Retry  fault.RetryPolicy
	// Verify re-scans every successful factorization for NaN/Inf before
	// delivering it (runtime.VerifyFinite) — the post-check that catches
	// data corruption the kernels cannot.
	Verify bool
	// Trace is the job-trace store behind the /traces and /drift endpoints.
	// Every job is traced end to end (admission → queue → plan → execute →
	// per-kernel spans → verify); finished traces are sampled into this
	// store and fold their measurements into the per-class drift report.
	// Nil gets a default store (256 traces, TraceSample sampling) wired to
	// Metrics.
	Trace *obs.Store
	// TraceSample keeps 1 in N successful traces when the default store is
	// built (failures are always kept). 0/1 keeps everything.
	TraceSample int
	// Logger, when non-nil, receives structured job-lifecycle logs
	// (admission, completion, retries, drops) tagged with trace ids, so
	// log lines correlate with /traces/{id}.
	Logger *slog.Logger
	// Store, when non-nil, makes accepted jobs durable: Submit writes the
	// job through the store before acknowledging (file-backed stores fsync
	// here), lifecycle transitions and results are mirrored into it, and New
	// replays every accepted-but-unfinished record it finds — re-admission
	// through the normal queue, with trace ids and absolute deadlines
	// preserved. Nil serves from memory only (a restart forgets everything).
	Store store.JobStore
	// BaseContext is the root context for work the server starts on its
	// own behalf: replay of recovered jobs and submissions that pass a nil
	// ctx. Nil selects context.Background(); a server embedded in a larger
	// process should pass its lifecycle context so recovered jobs unwind
	// when the host shuts down.
	BaseContext context.Context

	// testMidBatch, when set, runs inside the executor after a batch's jobs
	// are marked running and before the kernels dispatch — the hook the
	// crash-recovery tests use to halt the store "mid-batch".
	testMidBatch func()
}

func (c *Config) normalize() {
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.SmallTiles <= 0 {
		c.SmallTiles = 128
	}
	if c.DefaultTileSize <= 0 {
		c.DefaultTileSize = 16
	}
	if c.Platform == nil {
		c.Platform = device.PaperPlatform()
	}
	if c.Retain <= 0 {
		c.Retain = 1024
	}
	if c.Trace == nil {
		c.Trace = obs.NewStore(256, c.TraceSample, c.Metrics)
	}
	if c.BaseContext == nil {
		//qr:allow ctxdiscipline the server's one default lifecycle root; embedders override it via Config.BaseContext
		c.BaseContext = context.Background()
	}
}

// State is a job's lifecycle position.
type State int32

const (
	// StateQueued: accepted, waiting for a batch slot.
	StateQueued State = iota
	// StateRunning: executing in a batch.
	StateRunning
	// StateDone: completed successfully; Result returns the factorization.
	StateDone
	// StateFailed: cancelled, past deadline, or failed; Result returns the
	// error.
	StateFailed
)

// String names the state for reports and the HTTP API.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Job is one accepted factorization request. Wait (or Done + Result)
// delivers the outcome.
type Job struct {
	id  uint64
	cls *class
	a   *matrix.Matrix
	// sid keys the job's store record (the client id when one was supplied,
	// the numeric id in decimal otherwise); cid is the client-supplied
	// idempotency key ("" if none); recovered marks a job replayed from the
	// store at startup.
	sid       string
	cid       string
	recovered bool
	ctx       context.Context
	cancel    context.CancelFunc
	enq       time.Time

	// trace is the job's end-to-end span tree; queueSpan is the open
	// queue-wait span between admission and batch pickup.
	trace     *obs.Trace
	queueSpan obs.SpanID

	state atomic.Int32
	done  chan struct{}
	f     *tiled.Factorization
	err   error
	fin   time.Time
}

// ID is the server-assigned job identifier.
func (j *Job) ID() uint64 { return j.id }

// ClientID is the client-supplied idempotency key ("" if none was given).
func (j *Job) ClientID() string { return j.cid }

// Recovered reports whether the job was replayed from the store at startup
// rather than submitted in this process incarnation.
func (j *Job) Recovered() bool { return j.recovered }

// TraceID identifies the job's span tree in the trace store (the value of
// the X-Trace-Id response header; query it at /traces/{id}).
func (j *Job) TraceID() string {
	if j.trace == nil {
		return ""
	}
	return string(j.trace.ID)
}

// State reports the job's current lifecycle position.
func (j *Job) State() State { return State(j.state.Load()) }

// Class is the job's size-class key, e.g. "512x512/b16/flat-ts".
func (j *Job) Class() string { return j.cls.key }

// Done is closed when the job has finished (either way).
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the outcome of a finished job, or an error while it is
// still queued or running. It agrees with State: finish stores the outcome
// before the terminal state, so a caller that has seen a terminal State
// (a status poll reporting "done") always gets the outcome, even in the
// instant before Done is closed.
func (j *Job) Result() (*tiled.Factorization, error) {
	switch st := j.State(); st {
	case StateDone, StateFailed:
		return j.f, j.err
	default:
		return nil, fmt.Errorf("serve: job %d still %s", j.id, st)
	}
}

// Wait blocks until the job finishes or ctx fires, returning the
// factorization or the job's error.
func (j *Job) Wait(ctx context.Context) (*tiled.Factorization, error) {
	select {
	case <-j.done:
		return j.f, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// finish publishes the outcome exactly once.
func (j *Job) finish(f *tiled.Factorization, err error) {
	j.f, j.err = f, err
	j.fin = time.Now()
	if err != nil {
		j.state.Store(int32(StateFailed))
	} else {
		j.state.Store(int32(StateDone))
	}
	if j.cancel != nil {
		j.cancel()
	}
	close(j.done)
}

// SubmitOptions tune one submission.
type SubmitOptions struct {
	// TileSize for the tiled factorization; 0 uses the server default.
	TileSize int
	// Tree names the elimination tree ("" = flat-ts).
	Tree string
	// Timeout, when positive, imposes a per-job deadline measured from
	// admission (layered on top of whatever deadline ctx already carries).
	Timeout time.Duration
	// TraceID is a client-supplied trace id (the X-Trace-Id request
	// header). Empty or invalid ids are replaced by a freshly minted one;
	// the effective id is returned by Job.TraceID.
	TraceID string
	// ClientID is a client-supplied idempotency key. When set, a second
	// submission with the same key is rejected with ErrDuplicateID — across
	// restarts too, when a store is configured — so a retrying client (or
	// the fronting router) can never double-accept one logical job.
	ClientID string
	// Seed + SeedOnly mark a reproducible input: the store then persists the
	// 8-byte seed instead of the dense payload, and recovery regenerates the
	// matrix with workload.Uniform(Seed, rows, cols). The caller must have
	// built the submitted matrix exactly that way.
	Seed     int64
	SeedOnly bool
}

// batch is a group of same-class jobs executed as one tiled run.
type batch struct {
	cls  *class
	jobs []*Job
}

// Server is the batching QR job service. Create with New, stop with Close.
type Server struct {
	cfg Config
	reg *metrics.Registry

	mu     sync.RWMutex // guards closed vs. queue sends
	closed bool

	queue       chan *Job
	batches     chan *batch
	batcherDone chan struct{}
	execWG      sync.WaitGroup

	classes classCache

	nextID atomic.Uint64
	jobsMu sync.Mutex
	jobs   map[uint64]*Job
	byCID  map[string]*Job // client-id index; entries claimed at admission
	order  []uint64        // insertion order, for retention pruning

	// recovered is the set of jobs replayed from the store by New.
	recovered []*Job

	mSubmitted  *metrics.Counter
	mAccepted   *metrics.Counter
	mRejects    *metrics.Counter
	mDepth      *metrics.Gauge
	mPeak       *metrics.Gauge
	mBatches    *metrics.Counter
	mBatchSize  *metrics.Histogram
	mDone       *metrics.Counter
	mFailed     *metrics.Counter
	mQueueWait  *metrics.Histogram
	mDrops      *metrics.Counter
	mReplans    *metrics.Counter
	mDuplicates *metrics.Counter
	mRecovered  *metrics.Counter
}

// New starts a server: one batcher goroutine plus cfg.Executors batch
// executors. When a store is configured, New replays every
// accepted-but-unfinished record it holds before returning — the recovered
// jobs are re-admitted through the normal queue (already executing
// asynchronously when New returns; see RecoveredJobs).
func New(cfg Config) *Server {
	cfg.normalize()
	reg := cfg.Metrics
	s := &Server{
		cfg:         cfg,
		reg:         reg,
		queue:       make(chan *Job, cfg.QueueCapacity),
		batches:     make(chan *batch, cfg.Executors),
		batcherDone: make(chan struct{}),
		jobs:        map[uint64]*Job{},
		byCID:       map[string]*Job{},
		mSubmitted:  reg.Counter(MetricSubmitted),
		mAccepted:   reg.Counter(MetricAccepted),
		mRejects:    reg.Counter(MetricRejects),
		mDepth:      reg.Gauge(MetricQueueDepth),
		mPeak:       reg.Gauge(MetricQueuePeak),
		mBatches:    reg.Counter(MetricBatches),
		mBatchSize:  reg.Histogram(MetricBatchSize),
		mDone:       reg.Counter(MetricJobsDone),
		mFailed:     reg.Counter(MetricJobsFailed),
		mQueueWait:  reg.Histogram(MetricQueueWaitUS),
		mDrops:      reg.Counter(MetricDeviceDrops),
		mReplans:    reg.Counter(MetricReplans),
		mDuplicates: reg.Counter(MetricDuplicates),
		mRecovered:  reg.Counter(MetricRecovered),
	}
	s.classes.init(&s.cfg)
	go s.batcher()
	for i := 0; i < cfg.Executors; i++ {
		s.execWG.Add(1)
		go s.executor()
	}
	s.recover()
	return s
}

// RecoveredJobs returns the jobs New replayed from the store (possibly
// already finished by the time the caller looks).
func (s *Server) RecoveredJobs() []*Job {
	return append([]*Job(nil), s.recovered...)
}

// Submit validates and admits one factorization request. It never blocks:
// when the admission queue is full it returns ErrOverloaded immediately
// (callers translate that to HTTP 429 or retry with backoff). ctx governs
// the job's whole lifetime — cancelling it abandons the job even after
// admission, and opts.Timeout layers a deadline on top. The input matrix
// must not be mutated until the job finishes.
func (s *Server) Submit(ctx context.Context, a *matrix.Matrix, opts SubmitOptions) (*Job, error) {
	s.mSubmitted.Inc()
	// Every submission gets a trace from its first instruction; rejected
	// submissions finish theirs immediately and are not stored (the trace
	// store holds only admitted jobs).
	tr := obs.NewTrace(obs.SanitizeTraceID(opts.TraceID))
	adm := tr.Start(tr.Root(), obs.SpanAdmission)
	reject := func(err error) (*Job, error) {
		tr.EndErr(adm, err)
		tr.Finish(err)
		return nil, err
	}
	if a == nil || a.Rows == 0 || a.Cols == 0 {
		return reject(errors.New("serve: empty matrix"))
	}
	if i, j, ok := a.FindNonFinite(); ok {
		return reject(fmt.Errorf("serve: input element (%d,%d): %w", i, j, runtime.ErrNonFinite))
	}
	if ctx == nil {
		ctx = s.cfg.BaseContext
	}
	tile := opts.TileSize
	if tile <= 0 {
		tile = s.cfg.DefaultTileSize
	}
	tree, err := tiled.TreeByName(opts.Tree)
	if err != nil {
		return reject(fmt.Errorf("serve: %w", err))
	}
	if strings.HasPrefix(opts.ClientID, srvIDPrefix) {
		return reject(fmt.Errorf("serve: client id %q uses the reserved prefix %q", opts.ClientID, srvIDPrefix))
	}
	// Purely-numeric client ids are rejected too: bare decimals are the wire
	// names of server-assigned ids, and a client that claimed one would make
	// GET /jobs/{n} ambiguous — two jobs, one name, and whichever lookup path
	// runs first silently answers with the other caller's job.
	if opts.ClientID != "" {
		if _, err := strconv.ParseUint(opts.ClientID, 10, 64); err == nil {
			return reject(fmt.Errorf("serve: client id %q is purely numeric, which is reserved for server-assigned job ids", opts.ClientID))
		}
	}
	// The plan span covers the size-class lookup: on a class's first sight
	// this runs the paper's whole scheduling pipeline (Algorithms 2–4) plus
	// the DAG build; afterwards it is a cache hit.
	ps := tr.Start(tr.Root(), obs.SpanPlan)
	cls, err := s.classes.get(a.Rows, a.Cols, tile, tree, s.reg)
	tr.EndErr(ps, err)
	if err != nil {
		return reject(err)
	}
	j := &Job{
		id:    s.nextID.Add(1),
		cls:   cls,
		a:     a,
		cid:   opts.ClientID,
		enq:   time.Now(),
		done:  make(chan struct{}),
		trace: tr,
	}
	j.sid = j.cid
	if j.sid == "" {
		j.sid = srvIDPrefix + strconv.FormatUint(j.id, 10)
	}
	tr.SetAttr("job", strconv.FormatUint(j.id, 10))
	tr.SetAttr("class", cls.key)
	if opts.Timeout > 0 {
		j.ctx, j.cancel = context.WithTimeout(ctx, opts.Timeout)
	} else {
		j.ctx = ctx
	}
	// Claim the idempotency key before anything observable happens: two
	// racing submissions with the same client id must see exactly one 202.
	if j.cid != "" {
		if err := s.claimCID(j); err != nil {
			s.mDuplicates.Inc()
			if j.cancel != nil {
				j.cancel()
			}
			return reject(err)
		}
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		s.releaseCID(j)
		if j.cancel != nil {
			j.cancel()
		}
		return reject(ErrClosed)
	}
	// Durability point: the record reaches the store (file stores fsync
	// here) before the queue send, so an executor can never outrun the
	// persist and an acknowledged job can never be lost. The store also
	// backstops the idempotency check across restarts: a client id that was
	// ever accepted still has a record, and Put refuses it.
	if s.cfg.Store != nil {
		//qr:allow lockhold fsync-before-ack: Put must complete under the admission read-lock so Close cannot interleave between persist and queue send
		if err := s.cfg.Store.Put(s.recordOf(j, opts)); err != nil {
			s.releaseCID(j)
			if j.cancel != nil {
				j.cancel()
			}
			if errors.Is(err, store.ErrDuplicate) {
				s.mDuplicates.Inc()
				return reject(fmt.Errorf("%w: %q", ErrDuplicateID, j.sid))
			}
			return reject(fmt.Errorf("%w: %v", ErrPersist, err))
		}
	}
	// Close the admission span and open (and publish via the job field) the
	// queue span before the channel send: the moment the job is on the
	// queue an executor may read j.queueSpan, so every write to j and to
	// the trace must happen-before the send.
	tr.End(adm)
	j.queueSpan = tr.StartAt(tr.Root(), obs.SpanQueue, j.enq)
	select {
	case s.queue <- j:
		s.mAccepted.Inc()
		depth := float64(len(s.queue))
		s.mDepth.Set(depth)
		s.mPeak.SetMax(depth)
		s.remember(j)
		if s.cfg.Logger != nil {
			s.cfg.Logger.Info("job admitted",
				"trace_id", j.TraceID(), "job", j.id, "class", cls.key)
		}
		return j, nil
	default:
		s.mRejects.Inc()
		s.releaseCID(j)
		// Roll back the durable record: the client is told "overloaded",
		// so a restart must not replay this job. Known trade-off: a crash in
		// the window between Put and this Delete leaves the record behind,
		// and recovery will replay a job whose client saw 429. With a client
		// id the resubmission dedupes against that record (the job runs
		// once); an id-less job may execute once without anyone fetching the
		// result — wasted work, never a double-acknowledged or lost job.
		if s.cfg.Store != nil {
			//qr:allow lockhold rollback of the just-persisted record; same admission critical section as the Put above
			_ = s.cfg.Store.Delete(j.sid)
		}
		if j.cancel != nil {
			j.cancel()
		}
		tr.EndErr(j.queueSpan, ErrOverloaded)
		return reject(ErrOverloaded)
	}
}

// claimCID reserves a client-supplied job id, failing with ErrDuplicateID
// when a live job already holds it.
func (s *Server) claimCID(j *Job) error {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if _, ok := s.byCID[j.cid]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateID, j.cid)
	}
	s.byCID[j.cid] = j
	return nil
}

// releaseCID undoes claimCID after a failed admission.
func (s *Server) releaseCID(j *Job) {
	if j.cid == "" {
		return
	}
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	if s.byCID[j.cid] == j {
		delete(s.byCID, j.cid)
	}
}

// recordOf builds the job's durable record. Reproducible inputs persist
// their seed; everything else persists the dense payload.
func (s *Server) recordOf(j *Job, opts SubmitOptions) store.JobRecord {
	rec := store.JobRecord{
		ID:       j.sid,
		NumID:    j.id,
		ClientID: j.cid,
		TraceID:  j.TraceID(),
		Class:    j.cls.key,
		Rows:     j.a.Rows,
		Cols:     j.a.Cols,
		Tile:     j.cls.tile,
		Tree:     j.cls.tree.Name(),
		Accepted: j.enq,
		State:    store.StateAccepted,
	}
	if opts.SeedOnly {
		rec.SeedOnly, rec.Seed = true, opts.Seed
	} else {
		rec.Data = flattenMatrix(j.a)
	}
	if dl, ok := j.ctx.Deadline(); ok {
		rec.Deadline = dl
	}
	return rec
}

// flattenMatrix copies a matrix row-major into a fresh slice (the backing
// Data may be strided).
func flattenMatrix(a *matrix.Matrix) []float64 {
	out := make([]float64, 0, a.Rows*a.Cols)
	for i := 0; i < a.Rows; i++ {
		out = append(out, a.Row(i)...)
	}
	return out
}

// remember indexes the job for ID lookups, pruning the oldest finished
// jobs beyond the retention bound.
func (s *Server) remember(j *Job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for len(s.jobs) > s.cfg.Retain && len(s.order) > 0 {
		oldest, ok := s.jobs[s.order[0]]
		if ok && oldest.State() < StateDone {
			break // never forget a live job
		}
		if ok && oldest.cid != "" && s.byCID[oldest.cid] == oldest {
			delete(s.byCID, oldest.cid)
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
}

// Lookup returns the job with the given ID, if still retained.
func (s *Server) Lookup(id uint64) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// LookupClientID returns the live job holding the given client-supplied id,
// if still retained. Terminal jobs evicted from memory may still be
// resolvable through the store (see Record).
func (s *Server) LookupClientID(cid string) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.byCID[cid]
	return j, ok
}

// Jobs snapshots every retained in-memory job, in no particular order.
func (s *Server) Jobs() []*Job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	return out
}

// Record fetches a job's durable record straight from the store — the
// fallback the HTTP layer uses when a job id is not in memory (evicted, or
// finished in a previous process incarnation).
func (s *Server) Record(id string) (store.JobRecord, bool) {
	if s.cfg.Store == nil {
		return store.JobRecord{}, false
	}
	rec, err := s.cfg.Store.Get(id)
	return rec, err == nil
}

// Close drains the service gracefully: no new admissions, every already
// accepted job runs to completion (or to its deadline), then the executors
// exit. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.batcherDone
		s.execWG.Wait()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	<-s.batcherDone
	s.execWG.Wait()
	if s.cfg.Store != nil {
		// Every accepted job has an outcome now; push the terminal records
		// to stable storage so a post-drain restart replays nothing.
		_ = s.cfg.Store.Sync()
	}
}

// batcher is the single routing goroutine: it groups queued jobs by size
// class and flushes a class to the executors when it reaches MaxBatch
// jobs, when its window expires, or (large jobs) immediately.
func (s *Server) batcher() {
	defer close(s.batcherDone)
	pending := map[*class][]*Job{}
	var order []*class // classes with pending jobs, oldest window first
	windows := map[*class]time.Time{}

	flush := func(cls *class) {
		jobs := pending[cls]
		delete(pending, cls)
		delete(windows, cls)
		for i, c := range order {
			if c == cls {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		if len(jobs) > 0 {
			s.batches <- &batch{cls: cls, jobs: jobs}
		}
	}

	for {
		var windowC <-chan time.Time
		var window *time.Timer
		if len(order) > 0 {
			window = time.NewTimer(time.Until(windows[order[0]]))
			windowC = window.C
		}
		select {
		case j, ok := <-s.queue:
			if window != nil {
				window.Stop()
			}
			if !ok {
				for len(order) > 0 {
					flush(order[0])
				}
				close(s.batches)
				return
			}
			s.mDepth.Set(float64(len(s.queue)))
			cls := j.cls
			if !cls.small || s.cfg.MaxBatch <= 1 {
				s.batches <- &batch{cls: cls, jobs: []*Job{j}}
				continue
			}
			if _, ok := pending[cls]; !ok {
				order = append(order, cls)
				windows[cls] = time.Now().Add(s.cfg.BatchWindow)
			}
			pending[cls] = append(pending[cls], j)
			if len(pending[cls]) >= s.cfg.MaxBatch {
				flush(cls)
			}
		case <-windowC:
			flush(order[0])
		}
	}
}

// executor runs batches until the batcher closes the channel.
func (s *Server) executor() {
	defer s.execWG.Done()
	for b := range s.batches {
		s.runBatch(b)
	}
}

// runBatch executes one micro-batch as a single tiled run: every job's
// operation DAG (one cached DAG, replicated per job) shares one manager
// loop and one worker set sized by the class's cached plan.
func (s *Server) runBatch(b *batch) {
	cls := b.cls
	s.mBatches.Inc()
	s.mBatchSize.Observe(float64(len(b.jobs)))
	now := time.Now()
	var live []*Job
	var items []runtime.BatchItem
	var batchSpans []obs.SpanID
	for _, j := range b.jobs {
		s.mQueueWait.Observe(float64(now.Sub(j.enq)) / float64(time.Microsecond))
		// A job whose context fired while it queued is finished without
		// paying for tiling: its deadline budget covered the queue too.
		if err := j.ctx.Err(); err != nil {
			err = fmt.Errorf("serve: job %d expired in queue: %w", j.id, err)
			j.trace.EndErr(j.queueSpan, err)
			s.mFailed.Inc()
			s.complete(j, nil, err)
			continue
		}
		j.trace.End(j.queueSpan)
		j.state.Store(int32(StateRunning))
		if s.cfg.Store != nil {
			// Mirror the transition (not fsynced: losing it merely replays
			// the job, which the terminal CAS keeps exactly-once).
			_ = s.cfg.Store.MarkState(j.sid, "", store.StateRunning)
		}
		// The batch span covers micro-batch assembly for this job: tiling
		// the input into the shared DAG's layout until dispatch.
		batchSpans = append(batchSpans, j.trace.Start(j.trace.Root(), obs.SpanBatch))
		j.trace.SetAttr("batch_size", strconv.Itoa(len(b.jobs)))
		live = append(live, j)
		items = append(items, runtime.BatchItem{
			Ctx: j.ctx,
			F:   tiled.NewFactorization(tiled.FromDense(j.a, cls.tile), cls.tree),
		})
	}
	// Open each job's execute span just before dispatch; runtime workers
	// hang kernel spans off it via BatchItem.Trace/Span.
	execSpans := make([]obs.SpanID, len(live))
	for i, j := range live {
		j.trace.End(batchSpans[i])
		execSpans[i] = j.trace.Start(j.trace.Root(), obs.SpanExecute)
		items[i].Trace = j.trace
		items[i].Span = execSpans[i]
	}
	if s.cfg.testMidBatch != nil {
		s.cfg.testMidBatch()
	}
	errs, frep := runtime.ExecuteBatch(cls.dag, items, runtime.BatchOptions{
		Workers: cls.batchWorkers(),
		Metrics: s.reg,
		Faults:  s.cfg.Faults,
		Retry:   s.cfg.Retry,
		Logger:  s.cfg.Logger,
	})
	// Self-healing: a worker lost to an injected device drop replans the
	// class — Algorithms 2–4 re-run over the p−1 surviving devices, and the
	// survivors' plan drives every later batch of this class.
	if frep.WorkerDrops > 0 {
		s.mDrops.Add(int64(frep.WorkerDrops))
		for _, w := range frep.DroppedWorkers {
			if cls.replanAfterDrop(w, s.cfg.Workers, s.reg) {
				s.mReplans.Inc()
			}
		}
	}
	for i, j := range live {
		err := errs[i]
		j.trace.EndErr(execSpans[i], err)
		if err == nil && s.cfg.Verify {
			vs := j.trace.Start(j.trace.Root(), obs.SpanVerify)
			err = runtime.VerifyFinite(items[i].F)
			j.trace.EndErr(vs, err)
		}
		if err != nil {
			// An exhausted retry budget, contained panic or lost device is
			// the job's bad luck, not the input's fault: surface it as
			// retryable so clients resubmit instead of giving up.
			if fault.IsRetryable(err) {
				err = &RetryableError{Err: err, After: time.Second}
			}
			s.mFailed.Inc()
			s.complete(j, nil, err)
		} else {
			s.mDone.Inc()
			s.complete(j, items[i].F, nil)
		}
	}
}

// complete publishes a job's outcome. The trace is finalized and stored
// first, so whoever the completion wakes finds the finished trace in the
// trace store; the outcome is then mirrored into the job store.
func (s *Server) complete(j *Job, f *tiled.Factorization, err error) {
	s.finishJobTrace(j, err)
	j.finish(f, err)
	s.persistOutcome(j)
	j.cls.latency.Observe(float64(j.fin.Sub(j.enq)) / float64(time.Microsecond))
	if s.cfg.Logger != nil {
		if err != nil {
			s.cfg.Logger.Warn("job failed",
				"trace_id", j.TraceID(), "job", j.id, "class", j.cls.key,
				"elapsed", j.fin.Sub(j.enq), "err", err)
		} else {
			s.cfg.Logger.Info("job done",
				"trace_id", j.TraceID(), "job", j.id, "class", j.cls.key,
				"elapsed", j.fin.Sub(j.enq))
		}
	}
}

// persistOutcome mirrors a finished job into the store via the terminal
// CAS. An ErrConflict means another path (or a previous incarnation)
// already finished the record — this outcome is then discarded, which is
// exactly the exactly-once contract.
func (s *Server) persistOutcome(j *Job) {
	if s.cfg.Store == nil {
		return
	}
	var res *store.Result
	msg := ""
	if j.err != nil {
		msg = j.err.Error()
		if msg == "" {
			msg = "failed"
		}
	} else if j.f != nil {
		// R is freshly allocated and contiguous: the record can own it.
		r := j.f.R()
		res = &store.Result{Rows: r.Rows, Cols: r.Cols, Data: r.Data}
	}
	err := s.cfg.Store.SetResult(j.sid, res, msg)
	if err != nil && !errors.Is(err, store.ErrConflict) && !errors.Is(err, store.ErrHalted) && s.cfg.Logger != nil {
		s.cfg.Logger.Warn("job outcome not persisted",
			"trace_id", j.TraceID(), "job", j.id, "err", err)
	}
}

// finishJobTrace finalizes a finishing job's span tree — closing every span,
// extracting the realized critical path from the kernel spans and the
// class's DAG — folds its measurements into the drift ledger (successful
// jobs only), and offers the trace to the store.
func (s *Server) finishJobTrace(j *Job, err error) {
	tr := j.trace
	if tr == nil {
		return
	}
	tr.Finish(err)
	cls := j.cls
	cp := tr.ComputeCriticalPath(cls.dag.Deps)
	tr.SetCriticalPath(cp)
	if err == nil {
		pred, names := cls.prediction()
		var critUS float64
		if cp != nil {
			critUS = cp.TotalUS
		}
		busy := tr.WorkerBusyUS()
		var devs []obs.DeviceDrift
		for i, name := range names {
			if i >= len(pred.PerDeviceUS) {
				break
			}
			// Worker-i stands in for plan participant position i — the same
			// mapping replanAfterDrop uses for device drops.
			w := fmt.Sprintf("worker-%d", i)
			devs = append(devs, obs.DeviceDrift{
				Dev: name, Worker: w,
				ModelUS: pred.PerDeviceUS[i], MeasuredUS: busy[w],
			})
		}
		s.cfg.Trace.RecordDrift(cls.key, pred.TotalUS, tr.PhaseUS(obs.SpanExecute), critUS, devs)
	}
	s.cfg.Trace.Add(tr)
}
