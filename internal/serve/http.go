package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/mtxio"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/workload"
)

// Handler builds the server's HTTP API on top of the shared observability
// mux (/metrics, /debug/vars, /healthz — see metrics.NewServeMux):
//
//	POST /jobs             submit a factorization (202, or 429 when overloaded)
//	GET  /jobs             every job this worker knows (live + stored)
//	GET  /jobs/{id}        job status
//	GET  /jobs/{id}/result the R factor of a completed job
//	GET  /traces[/{id}]    end-to-end span trees (obs.RegisterHTTP)
//	GET  /drift            per-class model-vs-measured drift report
//
// Submissions describe the matrix either inline ("data", row-major) or as
// a reproducible workload ("seed"); see jobRequest. An inline matrix may
// instead arrive as a binary frame (Content-Type application/x-qr-matrix,
// see mtxio.ReadFrame) whose metadata section carries the other jobRequest
// fields. A result is a binary frame when the request's Accept header lists
// application/x-qr-matrix, JSON otherwise. Jobs outlive their
// submitting request — status is polled by ID. Every accepted submission
// returns its trace id in the X-Trace-Id response header (a client may
// propose one in the same request header); the id keys /traces/{id}.
func (s *Server) Handler(expvarName string) http.Handler {
	mux := metrics.NewServeMux(s.reg, expvarName)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	obs.RegisterHTTP(mux, s.cfg.Trace)
	return mux
}

// jobRequest is the POST /jobs body.
type jobRequest struct {
	// ID is an optional client-supplied idempotency key. A second POST with
	// the same id is rejected with 409 instead of creating a second job —
	// which makes resubmission after an ambiguous network failure (and the
	// router's failover re-dispatch) safe.
	ID   string `json:"id,omitempty"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	// Tile and Tree default to the server's tile size and flat-ts.
	Tile int    `json:"tile,omitempty"`
	Tree string `json:"tree,omitempty"`
	// Data, when present, is the row-major matrix (len rows*cols);
	// otherwise the matrix is generated from Seed as hetqr.RandomMatrix
	// does.
	Data []float64 `json:"data,omitempty"`
	Seed int64     `json:"seed,omitempty"`
	// TimeoutMS imposes a per-job deadline from admission.
	TimeoutMS int `json:"timeoutMS,omitempty"`
}

// jobStatus is the status/submit response body.
type jobStatus struct {
	ID        string  `json:"id"`
	ClientID  string  `json:"clientID,omitempty"`
	Status    string  `json:"status"`
	Class     string  `json:"class"`
	TraceID   string  `json:"traceID,omitempty"`
	Error     string  `json:"error,omitempty"`
	ElapsedMS float64 `json:"elapsedMS"`
	// Recovered marks a job replayed from the job store after a restart.
	Recovered bool `json:"recovered,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func statusOf(j *Job) jobStatus {
	st := jobStatus{
		ID:        strconv.FormatUint(j.ID(), 10),
		ClientID:  j.ClientID(),
		Status:    j.State().String(),
		Class:     j.Class(),
		TraceID:   j.TraceID(),
		Recovered: j.Recovered(),
	}
	switch j.State() {
	case StateDone, StateFailed:
		st.ElapsedMS = float64(j.fin.Sub(j.enq)) / float64(time.Millisecond)
		if _, err := j.Result(); err != nil {
			st.Error = err.Error()
		}
	default:
		st.ElapsedMS = float64(time.Since(j.enq)) / float64(time.Millisecond)
	}
	return st
}

// handleList enumerates every job this worker knows: the live in-memory
// table plus store records that outlived eviction or a restart, deduped by
// wire identity. A promoted standby router reconciles its dispatch table
// against this list, so completeness is the contract — every accepted
// idempotency key appears exactly once.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	seen := map[string]bool{}
	out := []jobStatus{}
	for _, j := range s.Jobs() {
		st := statusOf(j)
		key := st.ClientID
		if key == "" {
			key = st.ID
		}
		seen[key] = true
		out = append(out, st)
	}
	if s.cfg.Store != nil {
		if recs, err := s.cfg.Store.List(); err == nil {
			for _, rec := range recs {
				key := rec.ClientID
				if key == "" {
					key = wireID(rec)
				}
				if !seen[key] {
					out = append(out, statusOfRecord(rec))
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// decodeSubmission reads a POST /jobs body: a binary frame when the
// Content-Type names one — its matrix decodes straight into the job's
// storage and its metadata section supplies the other jobRequest fields —
// and a JSON jobRequest otherwise. A nil matrix means a seed-only job.
func decodeSubmission(r *http.Request) (jobRequest, *matrix.Matrix, error) {
	var req jobRequest
	if mtxio.IsFrameContentType(r.Header.Get("Content-Type")) {
		h, a, err := mtxio.ReadFrame(r.Body, r.ContentLength)
		if err == nil && len(h.Meta) > 0 {
			err = json.Unmarshal(h.Meta, &req)
		}
		if err != nil {
			return req, nil, fmt.Errorf("bad request body: %w", err)
		}
		req.Rows, req.Cols, req.Data, req.Seed = h.Rows, h.Cols, nil, 0
		return req, a, nil
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return req, nil, fmt.Errorf("bad request body: %w", err)
	}
	if req.Rows <= 0 || req.Cols <= 0 {
		return req, nil, errors.New("rows and cols must be positive")
	}
	if len(req.Data) == 0 {
		return req, nil, nil
	}
	if len(req.Data) != req.Rows*req.Cols {
		return req, nil, fmt.Errorf("data length %d != rows*cols = %d", len(req.Data), req.Rows*req.Cols)
	}
	a := matrix.New(req.Rows, req.Cols)
	copy(a.Data, req.Data)
	return req, a, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, a, err := decodeSubmission(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	seedOnly := a == nil
	if seedOnly {
		a = workload.Uniform(req.Seed, req.Rows, req.Cols)
	}
	// The job's context is deliberately NOT the request context: the job
	// outlives this HTTP exchange and is cancelled only by its own
	// deadline (or server drain).
	j, err := s.Submit(nil, a, SubmitOptions{
		TileSize: req.Tile,
		Tree:     req.Tree,
		Timeout:  time.Duration(req.TimeoutMS) * time.Millisecond,
		TraceID:  r.Header.Get("X-Trace-Id"),
		ClientID: req.ID,
		Seed:     req.Seed,
		SeedOnly: seedOnly,
	})
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDuplicateID):
		// 409 carries the existing job's status when it is resolvable, so
		// an idempotent retrier can switch straight to polling.
		if prev, ok := s.LookupClientID(req.ID); ok {
			writeJSON(w, http.StatusConflict, statusOf(prev))
			return
		}
		if rec, ok := s.Record(req.ID); ok {
			writeJSON(w, http.StatusConflict, statusOfRecord(rec))
			return
		}
		writeError(w, http.StatusConflict, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrPersist):
		writeError(w, http.StatusInternalServerError, err)
		return
	case errors.Is(err, runtime.ErrNonFinite):
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("X-Trace-Id", j.TraceID())
	writeJSON(w, http.StatusAccepted, statusOf(j))
}

// statusOfRecord renders a persisted record the way statusOf renders a live
// job — the restart-survivor view of a job.
func statusOfRecord(rec store.JobRecord) jobStatus {
	st := jobStatus{
		ID:       wireID(rec),
		ClientID: rec.ClientID,
		Class:    rec.Class,
		TraceID:  rec.TraceID,
		Error:    rec.Error,
	}
	switch rec.State {
	case store.StateAccepted:
		st.Status = StateQueued.String()
	case store.StateRunning:
		st.Status = StateRunning.String()
	case store.StateDone:
		st.Status = StateDone.String()
	case store.StateFailed:
		st.Status = StateFailed.String()
	default:
		st.Status = string(rec.State)
	}
	return st
}

// resolveJob finds a live job by path id: the server-assigned numeric id,
// or a client-supplied idempotency key.
func (s *Server) resolveJob(id string) (*Job, bool) {
	if n, err := strconv.ParseUint(id, 10, 64); err == nil {
		if j, ok := s.Lookup(n); ok {
			return j, true
		}
	}
	return s.LookupClientID(id)
}

// wireID is the id a record is presented under on the wire: the store key,
// minus the server-assigned namespace prefix — so a job submitted without a
// client id is polled by the same bare numeric id the 202 response carried.
func wireID(rec store.JobRecord) string {
	return strings.TrimPrefix(rec.ID, srvIDPrefix)
}

// recordByPath resolves a path id against the store. Jobs without a client
// id are keyed under the srv- namespace, so a bare numeric path id is also
// tried with the prefix restored.
func (s *Server) recordByPath(id string) (store.JobRecord, bool) {
	if rec, ok := s.Record(id); ok {
		return rec, true
	}
	if _, err := strconv.ParseUint(id, 10, 64); err == nil {
		return s.Record(srvIDPrefix + id)
	}
	return store.JobRecord{}, false
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j, ok := s.resolveJob(id); ok {
		writeJSON(w, http.StatusOK, statusOf(j))
		return
	}
	// Not in memory: evicted, or finished before a restart — the store
	// still knows it.
	if rec, ok := s.recordByPath(id); ok {
		writeJSON(w, http.StatusOK, statusOfRecord(rec))
		return
	}
	writeError(w, http.StatusNotFound,
		fmt.Errorf("no job %q (finished jobs are retained up to %d deep)", id, s.cfg.Retain))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.resolveJob(id)
	if !ok {
		if rec, found := s.recordByPath(id); found {
			s.writeRecordResult(w, r, rec)
			return
		}
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no job %q (finished jobs are retained up to %d deep)", id, s.cfg.Retain))
		return
	}
	f, err := j.Result()
	if err != nil {
		var re *RetryableError
		if errors.As(err, &re) {
			// The failure was the service's (exhausted retry budget, lost
			// device) — tell the client when to resubmit, not that the
			// request was bad.
			secs := int(re.After / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		code := http.StatusConflict // still queued/running
		if j.State() == StateFailed {
			code = http.StatusUnprocessableEntity
		}
		writeError(w, code, err)
		return
	}
	writeResult(w, r, strconv.FormatUint(j.ID(), 10), f.R())
}

// writeResult answers a result request with R: as a binary frame streamed
// straight from R's storage when the request's Accept header lists
// application/x-qr-matrix (and R fits in one), as JSON otherwise.
func writeResult(w http.ResponseWriter, r *http.Request, id string, rFac *matrix.Matrix) {
	if mtxio.AcceptsFrame(r.Header.Get("Accept")) && rFac.Rows*rFac.Cols <= mtxio.MaxFrameElems {
		meta, _ := json.Marshal(struct {
			ID string `json:"id"`
		}{id})
		w.Header().Set("Content-Type", mtxio.FrameContentType)
		w.Header().Set("Content-Length", strconv.FormatInt(mtxio.FrameLen(len(meta), rFac.Rows, rFac.Cols), 10))
		w.WriteHeader(http.StatusOK)
		_ = mtxio.WriteFrame(w, meta, rFac)
		return
	}
	rows := make([][]float64, rFac.Rows)
	for i := range rows {
		rows[i] = rFac.Row(i)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":   id,
		"rows": rFac.Rows,
		"cols": rFac.Cols,
		"r":    rows,
	})
}

// writeRecordResult serves a result straight from the job store — the path
// that makes completed work fetchable across a process restart.
func (s *Server) writeRecordResult(w http.ResponseWriter, r *http.Request, rec store.JobRecord) {
	switch {
	case rec.State == store.StateDone && rec.Result != nil:
		res := rec.Result
		if res.Rows < 0 || res.Cols < 0 || len(res.Data) != res.Rows*res.Cols {
			writeError(w, http.StatusInternalServerError,
				fmt.Errorf("job %s: stored result is %d values for %dx%d", wireID(rec), len(res.Data), res.Rows, res.Cols))
			return
		}
		writeResult(w, r, wireID(rec), &matrix.Matrix{Rows: res.Rows, Cols: res.Cols, Stride: res.Cols, Data: res.Data})
	case rec.State == store.StateFailed:
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("job %s failed: %s", wireID(rec), rec.Error))
	default:
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s still %s", wireID(rec), rec.State))
	}
}
