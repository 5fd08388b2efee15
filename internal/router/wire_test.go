package router

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/mtxio"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/workload"
)

func directR(t *testing.T, a *matrix.Matrix, tile int) *matrix.Matrix {
	t.Helper()
	f, err := runtime.Factor(a, runtime.Options{TileSize: tile})
	if err != nil {
		t.Fatal(err)
	}
	return f.R()
}

func requireRows(t *testing.T, what string, got [][]float64, want *matrix.Matrix) {
	t.Helper()
	if len(got) != want.Rows {
		t.Fatalf("%s: %d rows, want %d", what, len(got), want.Rows)
	}
	for i := range got {
		if len(got[i]) != want.Cols {
			t.Fatalf("%s: row %d has %d columns, want %d", what, i, len(got[i]), want.Cols)
		}
		for j, v := range got[i] {
			if math.Float64bits(v) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("%s: R(%d,%d) = %v, want %v", what, i, j, v, want.At(i, j))
			}
		}
	}
}

// postRecorder is a transport that notes the Content-Type of every
// submission the router forwards to a worker.
type postRecorder struct {
	mu    sync.Mutex
	types []string
}

func (p *postRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost {
		p.mu.Lock()
		p.types = append(p.types, req.Header.Get("Content-Type"))
		p.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(req)
}

func (p *postRecorder) seen() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.types...)
}

// TestRouterFrameResultMatchesJSON: an inline job goes in as a frame; its
// result comes back through the router as a frame to the client SDK and as
// JSON to a plain GET with no Accept header, both bit-identical to a direct
// factorization.
func TestRouterFrameResultMatchesJSON(t *testing.T) {
	w0, _ := newWorker(t, serve.Config{})
	rec := &postRecorder{}
	_, c, ts := newRouterClient(t, Config{Workers: []string{w0.URL},
		HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: rec}})
	a := workload.Uniform(21, 72, 56)
	res, err := c.Factor(testCtx(t), client.JobSpec{ID: "wire-1", Rows: 72, Cols: 56, Data: a.Data})
	if err != nil {
		t.Fatalf("factor: %v", err)
	}
	want := directR(t, a, 16)
	requireRows(t, "client result", res.R, want)
	if got := rec.seen(); len(got) != 1 || got[0] != mtxio.FrameContentType {
		t.Fatalf("router forwarded submissions as %q, want one frame", got)
	}

	resp, err := http.Get(ts.URL + "/jobs/wire-1/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/json" {
		t.Fatalf("plain GET: %d %q", resp.StatusCode, ct)
	}
	var plain client.Result
	if err := json.NewDecoder(resp.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	requireRows(t, "plain GET", plain.R, want)
}

// TestRouterMintsIDIntoFrame: a frame submitted without an id gets the
// router-minted idempotency key written into its metadata section, and the
// payload reaches the worker unchanged.
func TestRouterMintsIDIntoFrame(t *testing.T) {
	w0, _ := newWorker(t, serve.Config{})
	_, c, ts := newRouterClient(t, Config{Workers: []string{w0.URL}})
	a := workload.Uniform(22, 40, 40)
	body := mtxio.AppendFrame(nil, []byte(`{"tile":8}`), 40, 40, a.Data)
	resp, err := http.Post(ts.URL+"/jobs", mtxio.FrameContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st client.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, err)
	}
	if len(st.ClientID) < 3 || st.ClientID[:3] != "rt-" || st.Class != "40x40/b8/flat-ts" {
		t.Fatalf("status %+v, want a router-minted id and the metadata's tile", st)
	}
	res, err := c.Wait(testCtx(t), st.ClientID)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, "minted-id job", res.R, directR(t, a, 8))
}

// TestRouterRejectsBadFrames: a damaged submission frame is refused with
// 400 at the router, before any worker sees it.
func TestRouterRejectsBadFrames(t *testing.T) {
	w0, _ := newWorker(t, serve.Config{})
	r, _, ts := newRouterClient(t, Config{Workers: []string{w0.URL}})
	a := workload.Uniform(23, 16, 16)
	good := mtxio.AppendFrame(nil, []byte(`{"id":"bad"}`), 16, 16, a.Data)
	badCRC := append([]byte(nil), good...)
	badCRC[40] ^= 4
	shape := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(shape[12:], 15) // 16x15 declared, 16x16 sent
	for name, body := range map[string][]byte{
		"truncated": good[:len(good)/2],
		"badCRC":    badCRC,
		"shape":     shape,
	} {
		resp, err := http.Post(ts.URL+"/jobs", mtxio.FrameContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", name, resp.StatusCode, msg)
		}
	}
	for _, ws := range r.Workers() {
		if ws.Dispatched != 0 {
			t.Fatalf("a bad frame was dispatched: %+v", ws)
		}
	}
}

// TestRouterFailoverDeadWorkerInline is TestRouterFailoverDeadWorker with
// inline matrices: the journaled submissions are frames, and every one
// re-dispatched to the survivor must go out as a frame again and come back
// with a bit-identical R.
func TestRouterFailoverDeadWorkerInline(t *testing.T) {
	w0, _ := newWorker(t, serve.Config{Executors: 1, Workers: 1, QueueCapacity: 64})
	w1, _ := newWorker(t, serve.Config{Executors: 1, Workers: 1, QueueCapacity: 64})
	reg := metrics.NewRegistry()
	rec := &postRecorder{}
	r, c, _ := newRouterClient(t, Config{
		Workers: []string{w0.URL, w1.URL}, Metrics: reg,
		HealthInterval: 20 * time.Millisecond, DeadAfter: 2,
		HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: rec},
	})
	ctx := testCtx(t)

	inputs := map[string]*matrix.Matrix{}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("fi-%d", i)
		inputs[id] = workload.Uniform(int64(40+i), 512+16*i, 512)
		a := inputs[id]
		if _, err := c.Submit(ctx, client.JobSpec{ID: id, Rows: a.Rows, Cols: a.Cols, Data: a.Data, Tile: 64}); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	byURL := map[string]*httptest.Server{w0.URL: w0, w1.URL: w1}
	var victimURL string
	for _, ws := range r.Workers() {
		if ws.Dispatched > 0 {
			victimURL = ws.URL
			break
		}
	}
	if victimURL == "" {
		t.Fatal("no worker received a dispatch")
	}
	victim := byURL[victimURL]
	victim.CloseClientConnections()
	victim.Close()

	for id, a := range inputs {
		res, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("job %s lost after worker death: %v", id, err)
		}
		requireRows(t, "job "+id+" after failover", res.R, directR(t, a, 64))
	}
	if reg.Snapshot().Counters[MetricRedispatches] == 0 {
		t.Fatal("no failover re-dispatches recorded (kill landed after all jobs finished?)")
	}
	types := rec.seen()
	if len(types) <= len(inputs) {
		t.Fatalf("%d submissions forwarded for %d jobs: nothing was re-dispatched", len(types), len(inputs))
	}
	for _, ct := range types {
		if ct != mtxio.FrameContentType {
			t.Fatalf("a submission was forwarded as %q, want every one a frame", ct)
		}
	}
}
