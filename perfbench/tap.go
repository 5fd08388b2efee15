package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// HTTP sides the tap records: the client's requests to the router, and the
// router's requests to the workers.
const (
	sideClient = iota
	sideRouter
	numSides
)

// Store sides the tap records: the router's dispatch journal and the
// workers' job stores.
const (
	storeJournal = iota
	storeWorker
	numStores
)

// Request kinds on the job API.
const (
	reqSubmit = "submit"
	reqStatus = "status"
	reqResult = "result"
)

// httpEvent is one round trip seen by a tapped transport. end is when the
// response body had been read in full.
type httpEvent struct {
	kind       string
	start, end time.Time
	reqBytes   int64
	respBytes  int64
	code       int
	failed     bool // transport error
	// status and elapsedMS are parsed from status responses.
	status    string
	elapsedMS float64
}

// storeEvent is one timed JobStore call.
type storeEvent struct {
	op         string
	start, end time.Time
}

// jobEvents is everything the tap saw for one job id.
type jobEvents struct {
	http  [numSides][]httpEvent
	store [numStores][]storeEvent
}

// tap records, per job id, the round trips of the tapped transports and the
// calls into the tapped stores. It records only while enabled, so a traced
// run can measure an untraced phase on the same deployment first.
type tap struct {
	on   atomic.Bool
	mu   sync.Mutex
	jobs map[string]*jobEvents
}

func newTap() *tap { return &tap{jobs: map[string]*jobEvents{}} }

func (t *tap) events(id string) *jobEvents {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

func (t *tap) addHTTP(side int, id string, ev httpEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	je := t.jobs[id]
	if je == nil {
		je = &jobEvents{}
		t.jobs[id] = je
	}
	je.http[side] = append(je.http[side], ev)
}

func (t *tap) addStore(side int, id, op string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	je := t.jobs[id]
	if je == nil {
		je = &jobEvents{}
		t.jobs[id] = je
	}
	je.store[side] = append(je.store[side], storeEvent{op: op, start: start, end: end})
}

// jobRequest classifies a request on the job API: the job id it concerns
// and its kind. Submissions are identified by their X-Trace-Id, which the
// benchmark sets to the job id; anything else (health probes) yields "".
func jobRequest(req *http.Request) (id, kind string) {
	p := req.URL.Path
	if req.Method == http.MethodPost && p == "/jobs" {
		return req.Header.Get("X-Trace-Id"), reqSubmit
	}
	if req.Method != http.MethodGet || !strings.HasPrefix(p, "/jobs/") {
		return "", ""
	}
	rest := p[len("/jobs/"):]
	if id, ok := strings.CutSuffix(rest, "/result"); ok {
		return id, reqResult
	}
	if strings.Contains(rest, "/") {
		return "", ""
	}
	return rest, reqStatus
}

type tapRT struct {
	t    *tap
	side int
	base http.RoundTripper
}

func (t *tap) roundTripper(side int, base http.RoundTripper) http.RoundTripper {
	return &tapRT{t: t, side: side, base: base}
}

// RoundTrip times the exchange until the response body is read in full
// (the body is buffered and handed on), and counts its bytes.
func (rt *tapRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.t.on.Load() {
		return rt.base.RoundTrip(req)
	}
	id, kind := jobRequest(req)
	if id == "" {
		return rt.base.RoundTrip(req)
	}
	ev := httpEvent{kind: kind, start: time.Now(), reqBytes: max(req.ContentLength, 0)}
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		ev.end, ev.failed = time.Now(), true
		rt.t.addHTTP(rt.side, id, ev)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ev.end = time.Now()
	if err != nil {
		ev.failed = true
		rt.t.addHTTP(rt.side, id, ev)
		return nil, err
	}
	ev.code, ev.respBytes = resp.StatusCode, int64(len(body))
	if kind == reqStatus && resp.StatusCode == http.StatusOK {
		var st struct {
			Status    string  `json:"status"`
			ElapsedMS float64 `json:"elapsedMS"`
		}
		if json.Unmarshal(body, &st) == nil {
			ev.status, ev.elapsedMS = st.Status, st.ElapsedMS
		}
	}
	rt.t.addHTTP(rt.side, id, ev)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// timedStore is a JobStore that times the writes the service makes into it.
type timedStore struct {
	store.JobStore
	t    *tap
	side int
}

func (t *tap) store(side int, s store.JobStore) store.JobStore {
	return &timedStore{JobStore: s, t: t, side: side}
}

func (s *timedStore) timed(id, op string, f func() error) error {
	if !s.t.on.Load() {
		return f()
	}
	start := time.Now()
	err := f()
	s.t.addStore(s.side, id, op, start, time.Now())
	return err
}

func (s *timedStore) Put(rec store.JobRecord) error {
	return s.timed(rec.ID, "put", func() error { return s.JobStore.Put(rec) })
}

func (s *timedStore) MarkState(id string, from, to store.State) error {
	return s.timed(id, "mark", func() error { return s.JobStore.MarkState(id, from, to) })
}

func (s *timedStore) SetResult(id string, res *store.Result, errMsg string) error {
	return s.timed(id, "set_result", func() error { return s.JobStore.SetResult(id, res, errMsg) })
}

func (s *timedStore) Delete(id string) error {
	return s.timed(id, "delete", func() error { return s.JobStore.Delete(id) })
}
