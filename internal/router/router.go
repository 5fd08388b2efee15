// Package router is the multi-node front end for qrserve workers: one HTTP
// endpoint that shards factorization jobs across a fleet by size-class
// consistent hashing, watches worker health, respects per-worker
// backpressure, and re-dispatches the jobs of a dead worker so a crash in
// the fleet never loses an accepted job.
//
// Placement is by size class, not by job: every job with the same
// (rows, cols, tile, tree) hashes to the same worker, so each worker sees a
// narrow set of classes and its per-class DAG/plan caches and micro-batcher
// stay hot — the router is what makes the serve-layer batching work at
// fleet scale. When the primary worker for a class is saturated (429) or
// quarantined, the job walks the ring to the next worker in the
// deterministic failover order.
//
// Worker health is a circuit breaker, not a binary: consecutive probe (or
// dispatch-transport) failures quarantine a worker and fail its jobs over;
// once it has been quiet for a spell, half-open probes re-admit it on
// probation, with its dispatch share ramping back up instead of slamming a
// recovering process with the full backlog. See breaker.go.
//
// The router itself is crash-tolerant: every idempotency-key mint, dispatch
// decision and delivered-result verdict is journaled — through a durable
// JobStore (Config.State) before the proxied response is acked, and into a
// bounded in-memory window a standby peer follows over HTTP (Config.Peer;
// see peer.go and state.go). A restarted router reloads its failover table
// and resumes its sweep; a standby promotes itself when the primary stops
// answering. Either way, "kill any one process, lose nothing" holds across
// the routing tier, not just the workers.
//
// Every job the router forwards carries an idempotency key (the client's
// "id" when supplied, a router-minted one otherwise). That key is what
// makes failover re-dispatch safe: resubmitting the same job to the same
// worker cannot double-accept it, and the workers' durable stores guard
// terminal states with a compare-and-swap, so a job completes effectively
// once even when the router retries it across a crash. Minted keys embed a
// per-incarnation random instance token ("rt-<instance>-<n>"): the workers'
// stores outlive the router, so a restarted router must never re-mint a key
// a previous incarnation already spent.
//
// Submissions are JSON or binary matrix frames (mtxio, Content-Type
// application/x-qr-matrix). The router reads only what placement needs — a
// frame's header and metadata section — and forwards, journals and
// re-dispatches the body byte for byte, labelled by sniffing it. Reads pass
// the client's Accept header through, so a result comes back in whichever
// form the client negotiated with the worker.
package router

import (
	"bytes"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/mtxio"
	"repro/internal/store"
	"repro/internal/tiled"
)

// Router metric names.
const (
	// MetricDispatches counts jobs successfully placed on a worker
	// (labelled by worker).
	MetricDispatches = "router.dispatches"
	// MetricBackpressure counts 429 responses absorbed from workers — each
	// one moved a job to the next ring candidate (labelled by worker).
	MetricBackpressure = "router.backpressure_429"
	// MetricWorkerErrors counts transport-level worker failures seen on
	// dispatch or proxy (labelled by worker).
	MetricWorkerErrors = "router.worker_errors"
	// MetricRedispatches counts failover re-dispatches of jobs stranded on
	// a quarantined worker.
	MetricRedispatches = "router.failover_redispatches"
	// MetricExhausted counts submissions refused because no live,
	// non-backpressured worker remained.
	MetricExhausted = "router.ring_exhausted"
	// MetricWorkersAlive gauges the dispatchable worker count (breaker not
	// open).
	MetricWorkersAlive = "router.workers_alive"
	// MetricJobs gauges the tracked (non-pruned) job count.
	MetricJobs = "router.jobs_tracked"
	// MetricQuarantines counts breaker-open transitions (labelled by
	// worker).
	MetricQuarantines = "router.worker_quarantines"
	// MetricFanoutReads counts reads resolved by fanning out across the
	// fleet because the router had no entry for the id — the fallback a
	// journal-backed or journal-following router should never need.
	MetricFanoutReads = "router.fanout_reads"
	// MetricPromotions counts standby→primary promotions (0 or 1 per
	// process life).
	MetricPromotions = "router.promotions"
	// MetricResumed counts entries reloaded from the state store at start.
	MetricResumed = "router.state_resumed"
	// MetricRole gauges the role: 1 primary, 0 standby.
	MetricRole = "router.role_primary"
)

// Config configures a Router.
type Config struct {
	// Workers are the qrserve base URLs, e.g. "http://10.0.0.1:8080".
	Workers []string
	// VirtualNodes per worker on the hash ring (default 64).
	VirtualNodes int
	// DefaultTile mirrors the workers' default tile size so the router's
	// class keys (which drive placement) match theirs (default 16).
	DefaultTile int
	// HealthInterval is the base spacing of the /healthz probes (default
	// 250ms); actual rounds get full jitter in [base/2, 3·base/2).
	HealthInterval time.Duration
	// DeadAfter is the consecutive probe failures that open a worker's
	// breaker (quarantine) and trigger failover (default 2).
	DeadAfter int
	// HalfOpenAfter is how long a quarantined worker must stay quiet
	// before a successful probe moves it to half-open probation (default
	// 2×HealthInterval).
	HalfOpenAfter time.Duration
	// RampLevels is the number of half-open ramp levels: at level L the
	// worker receives one dispatch in 2^(RampLevels-L) (default 3).
	RampLevels int
	// LevelSuccesses is how many successes (probes or answered dispatches)
	// advance one ramp level (default 2).
	LevelSuccesses int
	// Retain bounds the tracked-job table; the oldest terminal jobs are
	// pruned past it (default 8192).
	Retain int
	// State, when set, persists the dispatch journal: every mint/dispatch/
	// delivery is written through before the proxied response is acked,
	// and a restarted router resumes its failover sweep from it. Use a
	// store.NewFile directory the router owns.
	State store.JobStore
	// Peer, when set, starts this router as a standby following the
	// primary at this base URL; it promotes itself when the primary stops
	// answering. See peer.go.
	Peer string
	// PeerInterval is the base spacing of standby journal pulls (default
	// HealthInterval); jittered like probes.
	PeerInterval time.Duration
	// PeerDeadAfter is the consecutive failed sync rounds before the
	// standby promotes (default 4).
	PeerDeadAfter int
	// JournalWindow bounds the in-memory op window peers follow (default
	// 8192 ops); a follower that falls further behind re-pulls the
	// snapshot.
	JournalWindow int
	// HTTPClient overrides the transport to workers (default 30s timeout).
	HTTPClient *http.Client
	// Metrics receives router.* metrics (nil = no-op).
	Metrics *metrics.Registry
	// Logger, when set, gets structured routing events.
	Logger *slog.Logger
}

func (c Config) normalize() Config {
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 64
	}
	if c.DefaultTile <= 0 {
		c.DefaultTile = 16
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 2
	}
	if c.HalfOpenAfter <= 0 {
		c.HalfOpenAfter = 2 * c.HealthInterval
	}
	if c.RampLevels <= 0 {
		c.RampLevels = 3
	}
	if c.LevelSuccesses <= 0 {
		c.LevelSuccesses = 2
	}
	if c.Retain <= 0 {
		c.Retain = 8192
	}
	if c.PeerInterval <= 0 {
		c.PeerInterval = c.HealthInterval
	}
	if c.PeerDeadAfter <= 0 {
		c.PeerDeadAfter = 4
	}
	if c.JournalWindow <= 0 {
		c.JournalWindow = 8192
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// breaker returns the per-worker breaker tuning.
func (c Config) breaker() breakerConfig {
	return breakerConfig{
		failThreshold:  c.DeadAfter,
		halfOpenAfter:  c.HalfOpenAfter,
		rampLevels:     c.RampLevels,
		levelSuccesses: c.LevelSuccesses,
	}
}

// worker is one backend's routing state.
type worker struct {
	url string

	mu           sync.Mutex
	cb           breaker
	backoffUntil time.Time // 429 Retry-After horizon

	dispatched atomic.Int64
}

// takeSlot decides one dispatch attempt against this worker: quarantined
// and backing-off workers refuse, half-open workers admit their ramped
// share, closed workers admit everything.
func (w *worker) takeSlot(now time.Time, cfg breakerConfig) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.cb.dispatchable() || now.Before(w.backoffUntil) {
		return false
	}
	return w.cb.admit(cfg)
}

func (w *worker) backoff(d time.Duration) {
	w.mu.Lock()
	until := time.Now().Add(d)
	if until.After(w.backoffUntil) {
		w.backoffUntil = until
	}
	w.mu.Unlock()
}

// WorkerStatus is one backend's state as reported by GET /workers.
type WorkerStatus struct {
	URL string `json:"url"`
	// Alive: dispatchable (breaker closed or half-open).
	Alive bool `json:"alive"`
	// State is the breaker position: "ok", "quarantined" or "probation".
	State      string `json:"state"`
	BackingOff bool   `json:"backingOff"`
	Dispatched int64  `json:"dispatched"`
}

// entry is one tracked job: everything needed to re-dispatch it if its
// worker dies before it finishes.
type entry struct {
	id      string
	class   string
	body    []byte // the exact submission forwarded, idempotency id included
	traceID string
	seq     uint64 // journal seq of the track op, for pruning order

	// dispatching marks the initial placement in flight, so the failover
	// sweep does not race the submit path to a double dispatch.
	dispatching atomic.Bool

	mu       sync.Mutex
	worker   int // index into Router.workers
	terminal bool
	// delivered: the result (or terminal failure) body was actually served
	// to a client. Only then is the job safe to forget on worker death —
	// an entry that merely *looked* done in a status poll still needs
	// failover re-dispatch, because the only copy of its result died with
	// the worker before anyone fetched it.
	delivered bool
}

func (e *entry) workerIdx() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.worker
}

func (e *entry) isTerminal() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.terminal
}

// Router shards jobs across qrserve workers. Create with New, serve its
// Handler, Close to stop the health loop.
type Router struct {
	cfg     Config
	reg     *metrics.Registry
	ring    *ring
	workers []*worker
	hc      *http.Client

	mu   sync.Mutex
	jobs map[string]*entry

	// journal is the bounded window of recent dispatch-state ops a standby
	// follows; journalSeq the last seq issued. See state.go.
	journalMu  sync.Mutex
	journal    []journalOp
	journalSeq uint64

	// role: primary dispatches and serves job traffic; standby mirrors.
	role atomic.Int32

	// instance tokens the keys this incarnation mints, so they cannot
	// collide with keys a previous incarnation left in the workers' stores.
	instance string
	nextID   atomic.Uint64

	mAlive      *metrics.Gauge
	mJobs       *metrics.Gauge
	mRole       *metrics.Gauge
	mRedis      *metrics.Counter
	mExhst      *metrics.Counter
	mFanout     *metrics.Counter
	mPromotions *metrics.Counter
	mResumed    *metrics.Counter
	stop        chan struct{}
	stopped     sync.WaitGroup
}

// New builds a router over cfg.Workers, reloads any persisted dispatch
// state, and starts its health loop (plus the standby follow loop when
// cfg.Peer is set). Workers start presumed alive; the first probe round
// corrects that within HealthInterval.
func New(cfg Config) (*Router, error) {
	cfg = cfg.normalize()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("router: at least one worker required")
	}
	r := &Router{
		cfg:      cfg,
		reg:      cfg.Metrics,
		ring:     newRing(cfg.Workers, cfg.VirtualNodes),
		hc:       cfg.HTTPClient,
		jobs:     map[string]*entry{},
		instance: randomToken(),
		stop:     make(chan struct{}),
	}
	for _, u := range cfg.Workers {
		r.workers = append(r.workers, &worker{url: u})
	}
	r.mAlive = r.reg.Gauge(MetricWorkersAlive)
	r.mJobs = r.reg.Gauge(MetricJobs)
	r.mRole = r.reg.Gauge(MetricRole)
	r.mRedis = r.reg.Counter(MetricRedispatches)
	r.mExhst = r.reg.Counter(MetricExhausted)
	r.mFanout = r.reg.Counter(MetricFanoutReads)
	r.mPromotions = r.reg.Counter(MetricPromotions)
	r.mResumed = r.reg.Counter(MetricResumed)
	r.mAlive.Set(float64(len(r.workers)))
	if cfg.State != nil {
		if err := r.loadState(); err != nil {
			return nil, err
		}
	}
	if cfg.Peer != "" {
		r.role.Store(roleStandby)
		r.mRole.Set(0)
		r.stopped.Add(1)
		go r.peerLoop()
	} else {
		r.mRole.Set(1)
	}
	r.stopped.Add(1)
	go r.healthLoop()
	return r, nil
}

// Close stops the health and peer loops. In-flight proxied requests are
// unaffected.
func (r *Router) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.stopped.Wait()
}

// Workers snapshots every backend's routing state.
func (r *Router) Workers() []WorkerStatus {
	now := time.Now()
	out := make([]WorkerStatus, len(r.workers))
	for i, w := range r.workers {
		w.mu.Lock()
		out[i] = WorkerStatus{
			URL:        w.url,
			Alive:      w.cb.dispatchable(),
			State:      w.cb.state.String(),
			BackingOff: now.Before(w.backoffUntil),
			Dispatched: w.dispatched.Load(),
		}
		w.mu.Unlock()
	}
	return out
}

// Handler builds the router's HTTP API on the shared observability mux:
// the same job endpoints the workers expose (so clients cannot tell a
// router from a single worker), plus GET /workers for fleet state, GET
// /role for the HA role, and the /peer/* state-sync endpoints a standby
// follows.
func (r *Router) Handler(expvarName string) http.Handler {
	mux := metrics.NewServeMux(r.reg, expvarName)
	mux.HandleFunc("POST /jobs", r.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, req *http.Request) {
		r.proxyRead(w, req, "")
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, req *http.Request) {
		r.proxyRead(w, req, "/result")
	})
	mux.HandleFunc("GET /workers", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, r.Workers())
	})
	mux.HandleFunc("GET /role", r.handleRole)
	mux.HandleFunc("GET /peer/state", r.handlePeerState)
	mux.HandleFunc("GET /peer/journal", r.handlePeerJournal)
	return mux
}

// submitRequest is the subset of the worker POST /jobs body (or of a
// frame's metadata section plus its shape) the router needs: identity and
// the class-key fields that drive placement. The raw body is forwarded;
// only "id" is injected when absent.
type submitRequest struct {
	ID   string `json:"id,omitempty"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	Tile int    `json:"tile,omitempty"`
	Tree string `json:"tree,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	if r.refuseStandby(w) {
		return
	}
	raw, err := readBody(req.Body, req.ContentLength, mtxio.MaxBodyBytes)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	sub, err := parseSubmission(raw, mtxio.IsFrameContentType(req.Header.Get("Content-Type")))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if sub.Rows <= 0 || sub.Cols <= 0 {
		writeError(w, http.StatusBadRequest, errors.New("rows and cols must be positive"))
		return
	}
	tree, err := tiled.TreeByName(sub.Tree)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tile := sub.Tile
	if tile <= 0 {
		tile = r.cfg.DefaultTile
	}
	// The router's class key mirrors serve.classKey — placement and the
	// workers' batching are keyed identically.
	class := fmt.Sprintf("%dx%d/b%d/%s", sub.Rows, sub.Cols, tile, tree.Name())

	body := raw
	id := sub.ID
	if id == "" {
		// Mint the idempotency key the failover path depends on. The
		// instance token keeps it unique across router incarnations: the
		// workers' durable stores remember every key ever accepted, so a
		// restarted counter alone would collide with a prior life's jobs and
		// hand this client some old job's result.
		id = "rt-" + r.instance + "-" + strconv.FormatUint(r.nextID.Add(1), 10)
		body, err = injectID(raw, id)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}

	e := &entry{id: id, class: class, body: body,
		traceID: req.Header.Get("X-Trace-Id"), worker: -1}
	e.dispatching.Store(true)
	r.mu.Lock()
	if prev, ok := r.jobs[id]; ok {
		r.mu.Unlock()
		// Known duplicate: answer 409 with the job's current status from
		// its worker, matching the single-worker contract.
		r.conflict(w, req, prev)
		return
	}
	r.jobs[id] = e
	r.mJobs.Set(float64(len(r.jobs)))
	r.mu.Unlock()

	// Journal the mint + dispatch decision BEFORE placing or acking: this
	// is the router's durability point. If the journal cannot be persisted
	// the submission must fail — acking a job the restart would forget is
	// exactly the window this journal closes.
	seq, jerr := r.logOp(journalOp{Kind: opTrack, ID: id, Class: class,
		TraceID: e.traceID, Body: body})
	e.seq = seq
	if jerr != nil {
		r.dropEntry(id)
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("router: persist dispatch state: %v", jerr))
		return
	}

	resp, widx, derr := r.dispatch(e)
	e.dispatching.Store(false)
	if derr != nil {
		r.dropEntry(id)
		r.mExhst.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, derr)
		return
	}
	defer resp.Body.Close()
	respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if resp.StatusCode != http.StatusAccepted {
		// The worker rejected the submission (validation, duplicate from a
		// previous router incarnation, persist failure): pass its verdict
		// through untouched and forget the entry — there is nothing to
		// re-dispatch. 409 keeps the entry: the job exists on that worker.
		if resp.StatusCode != http.StatusConflict {
			r.dropEntry(id)
		} else {
			e.mu.Lock()
			e.worker = widx
			e.mu.Unlock()
		}
		copyResponse(w, resp, respBody)
		return
	}
	copyResponse(w, resp, respBody)
}

// parseSubmission extracts the placement fields of a submission body: a
// JSON object, or — when frame is set — a binary matrix frame, validated in
// full (shape, length, checksum) but with only its header and metadata
// section decoded.
func parseSubmission(raw []byte, frame bool) (submitRequest, error) {
	var sub submitRequest
	if !frame {
		return sub, json.Unmarshal(raw, &sub)
	}
	h, err := mtxio.ParseFrame(raw)
	if err != nil {
		return sub, err
	}
	if len(h.Meta) > 0 {
		if err := json.Unmarshal(h.Meta, &sub); err != nil {
			return sub, fmt.Errorf("frame metadata: %w", err)
		}
	}
	sub.Rows, sub.Cols = h.Rows, h.Cols
	return sub, nil
}

// conflict renders a duplicate submission: 409 carrying the existing job's
// status when its worker can produce one.
func (r *Router) conflict(w http.ResponseWriter, req *http.Request, e *entry) {
	widx := e.workerIdx()
	if widx >= 0 {
		resp, err := r.get(r.workers[widx].url+"/jobs/"+e.id, req)
		if err == nil {
			defer resp.Body.Close()
			if body, rerr := readBody(resp.Body, resp.ContentLength, 64<<20); rerr == nil && resp.StatusCode == http.StatusOK {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusConflict)
				_, _ = w.Write(body)
				return
			}
		}
	}
	writeError(w, http.StatusConflict, fmt.Errorf("duplicate job id %q", e.id))
}

// dispatch walks the ring from the entry's class position, skipping
// quarantined and backing-off workers (and taking only the ramped share of
// half-open ones), and places the job on the first that takes it. A 429
// marks the worker's backoff horizon and moves on — per-worker
// backpressure steers load to ring neighbours instead of queueing blindly.
// A 409 means the worker already holds this id (a re-dispatch finding its
// job, or a restart replaying) and counts as placement. Successful
// placement is journaled. Returns the worker's response with its body
// unread.
func (r *Router) dispatch(e *entry) (*http.Response, int, error) {
	now := time.Now()
	var lastErr error
	tried := 0
	for _, widx := range r.ring.sequence(e.class) {
		wk := r.workers[widx]
		if !wk.takeSlot(now, r.cfg.breaker()) {
			continue
		}
		tried++
		req, err := http.NewRequest(http.MethodPost, wk.url+"/jobs", bytes.NewReader(e.body))
		if err != nil {
			return nil, -1, err
		}
		req.Header.Set("Content-Type", contentType(e.body))
		if e.traceID != "" {
			req.Header.Set("X-Trace-Id", e.traceID)
		}
		resp, err := r.hc.Do(req)
		if err != nil {
			lastErr = err
			r.reg.Counter(metrics.With(MetricWorkerErrors, "worker", wk.url)).Inc()
			r.noteDispatchFailure(widx)
			continue
		}
		// Any answer at all proves the process is there — feed the breaker
		// so probation ramps on real traffic, not only on probes.
		r.noteDispatchSuccess(widx)
		if resp.StatusCode == http.StatusTooManyRequests {
			r.reg.Counter(metrics.With(MetricBackpressure, "worker", wk.url)).Inc()
			wk.backoff(retryAfter(resp))
			lastErr = fmt.Errorf("worker %s overloaded", wk.url)
			resp.Body.Close()
			continue
		}
		if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusConflict {
			e.mu.Lock()
			e.worker = widx
			e.mu.Unlock()
			wk.dispatched.Add(1)
			r.reg.Counter(metrics.With(MetricDispatches, "worker", wk.url)).Inc()
			if _, err := r.logOp(journalOp{Kind: opPlace, ID: e.id, Worker: wk.url}); err != nil && r.cfg.Logger != nil {
				r.cfg.Logger.Warn("journal placement", "job", e.id, "err", err)
			}
			if r.cfg.Logger != nil {
				r.cfg.Logger.Info("job dispatched",
					"job", e.id, "class", e.class, "worker", wk.url, "status", resp.StatusCode)
			}
		}
		return resp, widx, nil
	}
	if lastErr != nil {
		return nil, -1, fmt.Errorf("router: no worker accepted the job (%d tried): %w", tried, lastErr)
	}
	return nil, -1, errors.New("router: no live worker available")
}

// proxyRead forwards a job read (status or result) to the job's current
// worker. While the job is mid-failover (its worker was just quarantined),
// reads get 503 + Retry-After so retrying clients land after the
// re-dispatch. An id the router does not remember (restart without a state
// store, or the entry was pruned) is fanned out to the workers before
// 404ing: their durable stores outlive the router, so clients still cannot
// tell a router from a single worker.
func (r *Router) proxyRead(w http.ResponseWriter, req *http.Request, suffix string) {
	if r.refuseStandby(w) {
		return
	}
	id := req.PathValue("id")
	r.mu.Lock()
	e, ok := r.jobs[id]
	r.mu.Unlock()
	if !ok {
		r.fanoutRead(w, req, id, suffix)
		return
	}
	widx := e.workerIdx()
	if widx < 0 || !r.isAlive(widx) {
		// Between the worker's quarantine and the failover re-dispatch there
		// is no one to ask; retrying clients land after the re-dispatch.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("router: job %q is being re-dispatched", id))
		return
	}
	resp, err := r.get(r.workers[widx].url+"/jobs/"+id+suffix, req)
	if err != nil {
		r.reg.Counter(metrics.With(MetricWorkerErrors, "worker", r.workers[widx].url)).Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("router: worker unreachable: %v", err))
		return
	}
	defer resp.Body.Close()
	body, err := readBody(resp.Body, resp.ContentLength, mtxio.MaxBodyBytes)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("router: worker read: %v", err))
		return
	}
	r.observeTerminal(e, suffix, resp.StatusCode, body)
	copyResponse(w, resp, body)
}

// fanoutRead resolves a job id the router has no entry for by asking every
// live worker in turn: the first answer that is not a 404 is authoritative
// (at most one worker ever accepted a given idempotency key). Only when the
// whole fleet disclaims the id does the client get 404.
func (r *Router) fanoutRead(w http.ResponseWriter, req *http.Request, id, suffix string) {
	r.mFanout.Inc()
	for pass := 0; pass < 2; pass++ {
		for widx, wk := range r.workers {
			// First pass live workers only; second pass tries the rest in
			// case the health loop is lagging a recovering worker.
			if (pass == 0) != r.isAlive(widx) {
				continue
			}
			resp, err := r.get(wk.url+"/jobs/"+id+suffix, req)
			if err != nil {
				r.reg.Counter(metrics.With(MetricWorkerErrors, "worker", wk.url)).Inc()
				continue
			}
			if resp.StatusCode == http.StatusNotFound {
				resp.Body.Close()
				continue
			}
			body, rerr := readBody(resp.Body, resp.ContentLength, mtxio.MaxBodyBytes)
			resp.Body.Close()
			if rerr != nil {
				continue
			}
			copyResponse(w, resp, body)
			return
		}
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("router: no job %q", id))
}

// observeTerminal marks an entry terminal once its worker reports a final
// state, which removes it from the failover set and lets pruning reclaim
// it. A delivered verdict is journaled BEFORE the body goes back to the
// client (the caller acks after this returns): a crash between journal and
// ack at worst re-dispatches a job the client will re-read — never the
// reverse, a forgotten job whose client believes it delivered.
func (r *Router) observeTerminal(e *entry, suffix string, code int, body []byte) {
	terminal := false
	failed := false
	switch suffix {
	case "":
		if code == http.StatusOK {
			var st struct {
				Status string `json:"status"`
			}
			if json.Unmarshal(body, &st) == nil {
				terminal = st.Status == "done" || st.Status == "failed"
			}
		}
	case "/result":
		terminal = code == http.StatusOK || code == http.StatusUnprocessableEntity
		failed = code == http.StatusUnprocessableEntity
	}
	if !terminal {
		return
	}
	e.mu.Lock()
	was := e.terminal
	wasDelivered := e.delivered
	e.terminal = true
	if suffix == "/result" {
		// The terminal body itself just went to a client: the job is fully
		// delivered and worker death can no longer lose anything.
		e.delivered = true
	}
	e.mu.Unlock()
	if suffix == "/result" && !wasDelivered {
		op := journalOp{Kind: opDeliver, ID: e.id}
		if failed {
			op.Error = "failed"
		}
		if _, err := r.logOp(op); err != nil && r.cfg.Logger != nil {
			r.cfg.Logger.Warn("journal delivery", "job", e.id, "err", err)
		}
	}
	if !was {
		r.prune()
	}
}

// prune evicts the oldest terminal entries past Retain, keeping the table
// (and the failover scan) bounded under sustained load. Evictions are
// journaled after the map shrinks — the store mirror must not run under
// r.mu.
func (r *Router) prune() {
	r.mu.Lock()
	if len(r.jobs) <= r.cfg.Retain {
		r.mu.Unlock()
		return
	}
	var victims []*entry
	for _, e := range r.jobs {
		if e.isTerminal() {
			victims = append(victims, e)
		}
	}
	over := len(r.jobs) - r.cfg.Retain
	if over > len(victims) {
		over = len(victims)
	}
	// Oldest first: selection by admission sequence.
	for i := 0; i < over; i++ {
		min := i
		for j := i + 1; j < len(victims); j++ {
			if victims[j].seq < victims[min].seq {
				min = j
			}
		}
		victims[i], victims[min] = victims[min], victims[i]
		delete(r.jobs, victims[i].id)
	}
	r.mJobs.Set(float64(len(r.jobs)))
	evicted := victims[:over]
	r.mu.Unlock()
	for _, e := range evicted {
		if _, err := r.logOp(journalOp{Kind: opForget, ID: e.id}); err != nil && r.cfg.Logger != nil {
			r.cfg.Logger.Warn("journal eviction", "job", e.id, "err", err)
		}
	}
}

// dropEntry forgets a job whose admission ultimately failed, journaling
// the eviction (outside the table lock).
func (r *Router) dropEntry(id string) {
	r.mu.Lock()
	delete(r.jobs, id)
	r.mJobs.Set(float64(len(r.jobs)))
	r.mu.Unlock()
	if _, err := r.logOp(journalOp{Kind: opForget, ID: id}); err != nil && r.cfg.Logger != nil {
		r.cfg.Logger.Warn("journal eviction", "job", id, "err", err)
	}
}

// randomToken returns a short random hex string — the per-incarnation
// instance token embedded in minted idempotency keys.
func randomToken() string {
	var b [6]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// time-derived token rather than colliding deterministically.
		return strconv.FormatInt(time.Now().UnixNano(), 36)
	}
	return hex.EncodeToString(b[:])
}

// injectID adds the router-minted idempotency key to a raw submission body:
// a JSON body's top-level object, or a frame's metadata section (the
// payload is copied through untouched).
func injectID(raw []byte, id string) ([]byte, error) {
	if !mtxio.IsFrame(raw) {
		return setID(raw, id)
	}
	h, err := mtxio.ParseFrame(raw)
	if err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	meta := h.Meta
	if len(meta) == 0 {
		meta = []byte("{}")
	}
	if meta, err = setID(meta, id); err != nil {
		return nil, err
	}
	return mtxio.ReplaceFrameMeta(raw, meta)
}

// setID sets "id" in a JSON object.
func setID(obj []byte, id string) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(obj, &m); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	idJSON, _ := json.Marshal(id)
	m["id"] = idJSON
	return json.Marshal(m)
}

// contentType labels a stored submission body for dispatch. Bodies are
// kept as the client sent them, so a frame is recognised by its magic.
func contentType(body []byte) string {
	if mtxio.IsFrame(body) {
		return mtxio.FrameContentType
	}
	return "application/json"
}

// get issues a job read to a worker, passing the client's Accept header
// through so the worker answers in the representation the client asked for.
func (r *Router) get(url string, client *http.Request) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if accept := client.Header.Get("Accept"); accept != "" {
		req.Header.Set("Accept", accept)
	}
	return r.hc.Do(req)
}

// readBody reads a whole body of at most limit bytes, in one allocation
// when its length is declared.
func readBody(rd io.Reader, n, limit int64) ([]byte, error) {
	if n < 0 || n > limit {
		return io.ReadAll(io.LimitReader(rd, limit))
	}
	b := make([]byte, n)
	_, err := io.ReadFull(rd, b)
	return b, err
}

// retryAfter parses a 429's Retry-After into the backoff horizon (default
// 500ms when absent or unparseable — enough to drain a micro-batch).
func retryAfter(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			if secs == 0 {
				return 100 * time.Millisecond
			}
			return time.Duration(secs) * time.Second
		}
	}
	return 500 * time.Millisecond
}

func copyResponse(w http.ResponseWriter, resp *http.Response, body []byte) {
	for _, h := range []string{"Content-Type", "X-Trace-Id", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}
