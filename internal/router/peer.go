package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/mtxio"
	"repro/internal/store"
)

// Active/standby router pairing. A router started with Config.Peer is a
// standby: it mirrors the primary's dispatch journal (one snapshot pull,
// then incremental journal follows over HTTP) while refusing job traffic
// with 503 + "X-Router-Role: standby" — the client SDK reads that header
// and rotates to the primary. When PeerDeadAfter consecutive sync rounds
// fail, the standby promotes itself: it first reconciles its table
// against every worker's job list (adopting jobs the journal window never
// delivered), then flips to primary and starts dispatching, sweeping and
// serving reads from the mirrored state — no fan-out fallback needed.
//
// Split-brain is tolerated, not prevented: if the primary was merely
// partitioned away, two routers may both dispatch for a while. The
// idempotency keys on every submission and the workers' terminal CAS keep
// completion exactly-once and results bit-identical regardless of how
// many routers re-dispatch a job; the cost of a false promotion is
// duplicate work, never a wrong or lost result.

// RoleHeader is set on refusals from a standby so clients (and the SDK)
// can distinguish "try the other router" from real overload.
const RoleHeader = "X-Router-Role"

const (
	rolePrimary int32 = iota
	roleStandby
)

// Role reports "primary" or "standby".
func (r *Router) Role() string {
	if r.isPrimary() {
		return "primary"
	}
	return "standby"
}

func (r *Router) isPrimary() bool { return r.role.Load() == rolePrimary }

// refuseStandby answers job traffic while this router is standby: 503
// with the role header, so the SDK rotates endpoints without burning its
// backoff budget. Returns true when the request was refused.
func (r *Router) refuseStandby(w http.ResponseWriter) bool {
	if r.isPrimary() {
		return false
	}
	w.Header().Set(RoleHeader, "standby")
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("router: standby (primary at %s)", r.cfg.Peer))
	return true
}

// peerRecord is one tracked job in the /peer/state snapshot.
type peerRecord struct {
	ID        string `json:"id"`
	Class     string `json:"class,omitempty"`
	TraceID   string `json:"traceID,omitempty"`
	Body      []byte `json:"body,omitempty"`
	Worker    string `json:"worker,omitempty"`
	Seq       uint64 `json:"seq"`
	Terminal  bool   `json:"terminal,omitempty"`
	Delivered bool   `json:"delivered,omitempty"`
}

// peerState is the GET /peer/state response: the full dispatch table with
// the journal watermark it is consistent "at or after". The watermark is
// read before the table, so ops racing the snapshot are re-delivered by
// the journal follow — applying them twice is idempotent.
type peerState struct {
	Instance string       `json:"instance"`
	Role     string       `json:"role"`
	Seq      uint64       `json:"seq"`
	Jobs     []peerRecord `json:"jobs"`
}

// peerJournal is the GET /peer/journal?after=N response.
type peerJournal struct {
	Instance string      `json:"instance"`
	Seq      uint64      `json:"seq"`
	Resync   bool        `json:"resync,omitempty"`
	Ops      []journalOp `json:"ops,omitempty"`
}

// handlePeerState serves the full-state snapshot a standby bootstraps from.
func (r *Router) handlePeerState(w http.ResponseWriter, _ *http.Request) {
	r.journalMu.Lock()
	seq := r.journalSeq
	r.journalMu.Unlock()
	st := peerState{Instance: r.instance, Role: r.Role(), Seq: seq}
	r.mu.Lock()
	st.Jobs = make([]peerRecord, 0, len(r.jobs))
	for _, e := range r.jobs {
		e.mu.Lock()
		pr := peerRecord{
			ID: e.id, Class: e.class, TraceID: e.traceID, Body: e.body,
			Seq: e.seq, Terminal: e.terminal, Delivered: e.delivered,
		}
		if e.worker >= 0 {
			pr.Worker = r.workers[e.worker].url
		}
		e.mu.Unlock()
		st.Jobs = append(st.Jobs, pr)
	}
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handlePeerJournal serves incremental journal follows.
func (r *Router) handlePeerJournal(w http.ResponseWriter, req *http.Request) {
	after, err := strconv.ParseUint(req.URL.Query().Get("after"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad after: %w", err))
		return
	}
	ops, seq, resync := r.journalAfter(after)
	writeJSON(w, http.StatusOK, peerJournal{Instance: r.instance, Seq: seq, Resync: resync, Ops: ops})
}

// handleRole serves GET /role.
func (r *Router) handleRole(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"role": r.Role(), "instance": r.instance, "peer": r.cfg.Peer,
	})
}

// peerLoop is the standby's life: follow the primary's journal until it
// stops answering, then promote. Poll spacing gets the same full jitter
// as health probes.
func (r *Router) peerLoop() {
	defer r.stopped.Done()
	var (
		synced   bool
		last     uint64
		instance string
		fails    int
	)
	t := time.NewTimer(r.jitteredPeerInterval())
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		var err error
		if !synced {
			instance, last, err = r.pullSnapshot()
			synced = err == nil
		} else {
			var pj peerJournal
			err = r.peerGet("/peer/journal?after="+strconv.FormatUint(last, 10), &pj)
			switch {
			case err != nil:
			case pj.Instance != instance || pj.Resync:
				// The primary restarted (new incarnation) or our cursor fell
				// out of its window: start over from a fresh snapshot.
				synced = false
			default:
				r.applyPeerOps(pj.Ops)
				last = pj.Seq
			}
		}
		if err != nil {
			fails++
			if fails >= r.cfg.PeerDeadAfter {
				r.promote(fmt.Sprintf("primary unreachable after %d sync attempts: %v", fails, err))
				return
			}
		} else {
			fails = 0
		}
		t.Reset(r.jitteredPeerInterval())
	}
}

func (r *Router) jitteredPeerInterval() time.Duration {
	base := int64(r.cfg.PeerInterval)
	return time.Duration(base/2 + rand.Int63n(base))
}

// peerGet fetches one peer endpoint into v, with a bounded read and a
// timeout matched to the poll interval.
func (r *Router) peerGet(path string, v any) error {
	to := 4 * r.cfg.PeerInterval
	if to < time.Second {
		to = time.Second
	}
	hc := &http.Client{Timeout: to, Transport: r.hc.Transport}
	resp, err := hc.Get(r.cfg.Peer + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, probeBodyCap))
		return fmt.Errorf("peer %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, mtxio.MaxBodyBytes))
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// pullSnapshot bootstraps (or re-bootstraps) the mirror from /peer/state,
// replacing the local table wholesale.
func (r *Router) pullSnapshot() (instance string, seq uint64, err error) {
	var st peerState
	if err := r.peerGet("/peer/state", &st); err != nil {
		return "", 0, err
	}
	fresh := make(map[string]*entry, len(st.Jobs))
	for _, pr := range st.Jobs {
		e := &entry{
			id: pr.ID, class: pr.Class, body: pr.Body, traceID: pr.TraceID,
			seq: pr.Seq, worker: r.workerIdxByURL(pr.Worker),
			terminal: pr.Terminal, delivered: pr.Delivered,
		}
		fresh[pr.ID] = e
	}
	r.mu.Lock()
	r.jobs = fresh
	r.mJobs.Set(float64(len(r.jobs)))
	r.mu.Unlock()
	r.journalMu.Lock()
	r.journalSeq = st.Seq
	r.journal = r.journal[:0]
	r.journalMu.Unlock()
	r.mirrorSnapshot(st.Jobs)
	if r.cfg.Logger != nil {
		r.cfg.Logger.Info("standby synced snapshot",
			"primary", r.cfg.Peer, "jobs", len(st.Jobs), "seq", st.Seq)
	}
	return st.Instance, st.Seq, nil
}

// mirrorSnapshot reconciles the local store with a freshly pulled
// snapshot: records absent from the snapshot are deleted (they were
// delivered or forgotten on the primary), snapshot jobs are upserted.
func (r *Router) mirrorSnapshot(jobs []peerRecord) {
	st := r.cfg.State
	if st == nil {
		return
	}
	keep := make(map[string]bool, len(jobs))
	for _, pr := range jobs {
		keep[pr.ID] = true
	}
	if recs, err := st.List(); err == nil {
		for _, rec := range recs {
			if !keep[rec.ID] {
				_ = st.Delete(rec.ID)
			}
		}
	}
	for _, pr := range jobs {
		op := journalOp{Kind: opTrack, Seq: pr.Seq, ID: pr.ID,
			Class: pr.Class, TraceID: pr.TraceID, Body: pr.Body}
		if err := r.mirrorOp(op); err != nil && !errors.Is(err, store.ErrDuplicate) {
			if r.cfg.Logger != nil {
				r.cfg.Logger.Warn("standby snapshot mirror", "job", pr.ID, "err", err)
			}
		}
	}
}

// applyPeerOps replays journal ops from the primary onto the mirror (and
// the local store). Ops are idempotent: re-applying a window the snapshot
// already contained is harmless.
func (r *Router) applyPeerOps(ops []journalOp) {
	for _, op := range ops {
		switch op.Kind {
		case opTrack:
			e := &entry{id: op.ID, class: op.Class, body: op.Body,
				traceID: op.TraceID, seq: op.Seq, worker: -1}
			r.mu.Lock()
			if _, ok := r.jobs[op.ID]; !ok {
				r.jobs[op.ID] = e
				r.mJobs.Set(float64(len(r.jobs)))
			}
			r.mu.Unlock()
		case opPlace:
			if e := r.lookup(op.ID); e != nil {
				widx := r.workerIdxByURL(op.Worker)
				e.mu.Lock()
				e.worker = widx
				e.mu.Unlock()
			}
		case opDeliver:
			if e := r.lookup(op.ID); e != nil {
				e.mu.Lock()
				e.terminal = true
				e.delivered = true
				e.mu.Unlock()
			}
		case opForget:
			r.mu.Lock()
			delete(r.jobs, op.ID)
			r.mJobs.Set(float64(len(r.jobs)))
			r.mu.Unlock()
		}
		_ = r.mirrorOp(op)
	}
	r.journalMu.Lock()
	if n := len(ops); n > 0 && ops[n-1].Seq > r.journalSeq {
		r.journalSeq = ops[n-1].Seq
	}
	r.journalMu.Unlock()
}

func (r *Router) lookup(id string) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

// workerIdxByURL maps a journaled worker URL onto this router's worker
// list (-1 when unknown — the failover sweep will re-place the job).
func (r *Router) workerIdxByURL(url string) int {
	if url == "" {
		return -1
	}
	for i, wk := range r.workers {
		if wk.url == url {
			return i
		}
	}
	return -1
}

// promote turns the standby into the primary. Reconciliation runs first,
// while job traffic is still refused: the journal follow is asynchronous,
// so the last window before the primary died may never have arrived — but
// every job the primary acked was dispatched to some worker, and the
// workers enumerate their jobs. Adopting those fills every hole, which is
// what lets the promoted router serve reads from its own table instead of
// fanning out.
func (r *Router) promote(reason string) {
	r.reconcile()
	r.role.Store(rolePrimary)
	r.mRole.Set(1)
	r.mPromotions.Inc()
	if r.cfg.Logger != nil {
		r.cfg.Logger.Warn("standby promoted to primary", "reason", reason)
	}
}

// workerJobList is the subset of a worker's GET /jobs response the
// reconciliation needs. The router tracks jobs by idempotency key, which
// the worker reports as clientID (every router-forwarded job carries one);
// the worker-assigned numeric id is the fallback for jobs submitted to the
// worker directly.
type workerJobList struct {
	Jobs []struct {
		ID       string `json:"id"`
		ClientID string `json:"clientID"`
		Status   string `json:"status"`
		Class    string `json:"class"`
	} `json:"jobs"`
}

// reconcile adopts every job the fleet knows that the mirror does not,
// and binds mirrored-but-unplaced entries to the worker that holds them.
// Adopted entries carry no submission body (this router never saw one),
// so they are served by proxying reads to their worker and are excluded
// from the re-dispatch sweep.
func (r *Router) reconcile() {
	for widx, wk := range r.workers {
		var list workerJobList
		resp, err := r.hc.Get(wk.url + "/jobs")
		if err != nil {
			r.reg.Counter(metrics.With(MetricWorkerErrors, "worker", wk.url)).Inc()
			continue
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(body, &list) != nil {
			continue
		}
		adopted := 0
		for _, wj := range list.Jobs {
			key := wj.ClientID
			if key == "" {
				key = wj.ID
			}
			if key == "" {
				continue
			}
			terminal := wj.Status == "done" || wj.Status == "failed"
			r.mu.Lock()
			e, ok := r.jobs[key]
			if !ok {
				r.jobs[key] = &entry{id: key, class: wj.Class,
					worker: widx, terminal: terminal}
				r.mJobs.Set(float64(len(r.jobs)))
				adopted++
			}
			r.mu.Unlock()
			if ok {
				e.mu.Lock()
				if e.worker < 0 {
					e.worker = widx
				}
				e.mu.Unlock()
			}
		}
		if adopted > 0 && r.cfg.Logger != nil {
			r.cfg.Logger.Info("reconciled worker jobs", "worker", wk.url, "adopted", adopted)
		}
	}
}
