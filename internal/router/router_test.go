package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workload"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestRingDeterministicAndComplete(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c"}
	rg := newRing(urls, 64)
	hit := map[int]int{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("%dx%d/b16/flat-ts", 64+i, 64)
		seq := rg.sequence(key)
		if len(seq) != 3 {
			t.Fatalf("sequence(%q) = %v, want all 3 workers", key, seq)
		}
		seen := map[int]bool{}
		for _, w := range seq {
			if seen[w] {
				t.Fatalf("sequence(%q) repeats worker %d", key, w)
			}
			seen[w] = true
		}
		// Same key, same sequence — placement is a pure function of the ring.
		seq2 := newRing(urls, 64).sequence(key)
		for j := range seq {
			if seq[j] != seq2[j] {
				t.Fatalf("sequence(%q) not deterministic", key)
			}
		}
		hit[seq[0]]++
	}
	// Virtual nodes spread primaries across all workers.
	for w := 0; w < 3; w++ {
		if hit[w] == 0 {
			t.Fatalf("worker %d never primary across 200 classes: %v", w, hit)
		}
	}
}

// worker spins up one real qrserve backend.
func newWorker(t *testing.T, cfg serve.Config) (*httptest.Server, *serve.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler(""))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts, s
}

func newRouterClient(t *testing.T, cfg Config) (*Router, *client.Client, *httptest.Server) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(r.Handler(""))
	t.Cleanup(func() { ts.Close(); r.Close() })
	c, err := client.New(client.Config{BaseURL: ts.URL,
		Retry: client.RetryPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	return r, c, ts
}

func TestRouterShardsAndServes(t *testing.T) {
	w0, _ := newWorker(t, serve.Config{})
	w1, _ := newWorker(t, serve.Config{})
	reg := metrics.NewRegistry()
	r, c, _ := newRouterClient(t, Config{
		Workers: []string{w0.URL, w1.URL}, Metrics: reg,
		HealthInterval: 25 * time.Millisecond,
	})

	// Distinct shapes = distinct classes: with enough of them, both workers
	// get traffic, and every job of one class goes to one worker.
	type res struct {
		id   string
		seed int64
		rows int
	}
	var jobs []res
	for i := 0; i < 8; i++ {
		rows := 32 + 8*i
		id := fmt.Sprintf("shard-%d", i)
		jobs = append(jobs, res{id, int64(i), rows})
		if _, err := c.Submit(testCtx(t), client.JobSpec{ID: id, Rows: rows, Cols: 32, Seed: int64(i)}); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	for _, j := range jobs {
		got, err := c.Wait(testCtx(t), j.id)
		if err != nil {
			t.Fatalf("wait %s: %v", j.id, err)
		}
		direct, err := runtime.Factor(workload.Uniform(j.seed, j.rows, 32), runtime.Options{TileSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		dr := direct.R()
		for i := 0; i < dr.Rows; i++ {
			for k := 0; k < dr.Cols; k++ {
				if got.R[i][k] != dr.At(i, k) {
					t.Fatalf("job %s: R[%d][%d] mismatch", j.id, i, k)
				}
			}
		}
	}
	var dispatched int64
	for _, ws := range r.Workers() {
		if !ws.Alive {
			t.Fatalf("worker %s reported dead", ws.URL)
		}
		dispatched += ws.Dispatched
	}
	if dispatched != int64(len(jobs)) {
		t.Fatalf("dispatched %d, want %d", dispatched, len(jobs))
	}
	if got := reg.Snapshot().SumCounters(MetricDispatches); got != int64(len(jobs)) {
		t.Fatalf("%s total = %d, want %d", MetricDispatches, got, len(jobs))
	}
}

func TestRouterSameClassSameWorker(t *testing.T) {
	w0, _ := newWorker(t, serve.Config{})
	w1, _ := newWorker(t, serve.Config{})
	r, c, _ := newRouterClient(t, Config{Workers: []string{w0.URL, w1.URL}})
	for i := 0; i < 6; i++ {
		if _, err := c.Factor(testCtx(t), client.JobSpec{Rows: 64, Cols: 64, Seed: int64(i)}); err != nil {
			t.Fatalf("factor %d: %v", i, err)
		}
	}
	// One class → one worker: all six dispatches on a single backend.
	var nonZero int
	for _, ws := range r.Workers() {
		if ws.Dispatched > 0 {
			nonZero++
			if ws.Dispatched != 6 {
				t.Fatalf("class split across workers: %+v", r.Workers())
			}
		}
	}
	if nonZero != 1 {
		t.Fatalf("class placed on %d workers, want 1", nonZero)
	}
}

func TestRouterDuplicateID(t *testing.T) {
	w0, _ := newWorker(t, serve.Config{})
	_, c, _ := newRouterClient(t, Config{Workers: []string{w0.URL}})
	ctx := testCtx(t)
	j1, err := c.Submit(ctx, client.JobSpec{ID: "dup", Rows: 32, Cols: 32, Seed: 1})
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	if _, err := c.Submit(ctx, client.JobSpec{ID: "dup", Rows: 32, Cols: 32, Seed: 2}); !errors.Is(err, client.ErrDuplicate) {
		t.Fatalf("second: got %v, want ErrDuplicate", err)
	}
	if _, err := j1.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

func TestRouterValidation(t *testing.T) {
	w0, _ := newWorker(t, serve.Config{})
	_, _, ts := newRouterClient(t, Config{Workers: []string{w0.URL}})
	for _, body := range []string{`{`, `{"rows":0,"cols":4}`, `{"rows":4,"cols":4,"tree":"bogus"}`} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/unknown")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}
}

// fixedNames gives each test server a stable worker URL
// ("http://qr-worker-<i>.test") and returns a client whose transport dials
// those names to the servers' real listeners. The ring hashes worker URLs,
// so stable names make placement independent of the ports httptest picks.
func fixedNames(t *testing.T, servers ...*httptest.Server) ([]string, *http.Client) {
	t.Helper()
	addr := map[string]string{}
	urls := make([]string, len(servers))
	for i, ts := range servers {
		host := fmt.Sprintf("qr-worker-%d.test", i)
		urls[i] = "http://" + host
		addr[host+":80"] = ts.Listener.Addr().String()
	}
	var d net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, a string) (net.Conn, error) {
		if real, ok := addr[a]; ok {
			a = real
		}
		return d.DialContext(ctx, network, a)
	}}
	t.Cleanup(tr.CloseIdleConnections)
	return urls, &http.Client{Timeout: 30 * time.Second, Transport: tr}
}

// waitAllAlive blocks until the router reports every worker dispatchable.
func waitAllAlive(t *testing.T, r *Router) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		alive := true
		for _, ws := range r.Workers() {
			alive = alive && ws.Alive && !ws.BackingOff
		}
		if alive {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never all alive: %+v", r.Workers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterBackpressureSteersToNextWorker: a worker that keeps answering
// 429 is walked past — its jobs land on the ring neighbour and the refusals
// are visible in router metrics.
func TestRouterBackpressureSteersToNextWorker(t *testing.T) {
	// A fake worker that is permanently saturated.
	full := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		fmt.Fprintln(w, "ok") // healthz: alive, just overloaded
	}))
	defer full.Close()
	real0, _ := newWorker(t, serve.Config{})
	urls, hc := fixedNames(t, full, real0)
	reg := metrics.NewRegistry()
	r, c, _ := newRouterClient(t, Config{
		Workers: urls, Metrics: reg, HTTPClient: hc,
		HealthInterval: 25 * time.Millisecond,
	})
	// With fixed worker names the ring layout is fixed: pick the first
	// class whose primary is the saturated worker.
	rows := 0
	for n := 32; n <= 512 && rows == 0; n += 8 {
		if r.ring.sequence(fmt.Sprintf("%dx32/b16/flat-ts", n))[0] == 0 {
			rows = n
		}
	}
	if rows == 0 {
		t.Fatal("no class has the saturated worker as its ring primary")
	}
	waitAllAlive(t, r)
	if _, err := c.Factor(testCtx(t), client.JobSpec{Rows: rows, Cols: 32, Seed: 1}); err != nil {
		t.Fatalf("factor: %v", err)
	}
	if got := reg.Snapshot().SumCounters(MetricBackpressure); got == 0 {
		t.Fatal("no 429s absorbed — saturated worker never primary (ring layout changed?)")
	}
}

// TestRouterFailoverDeadWorker is the fleet-level crash test: one of two
// workers is killed with jobs accepted and unfinished; the health loop
// declares it dead and re-dispatches its jobs to the survivor; every job
// completes with the correct result — zero lost jobs.
func TestRouterFailoverDeadWorker(t *testing.T) {
	// Single-file executors make "accepted but unfinished at kill time"
	// deterministic: each worker can only run one job at a time.
	w0, _ := newWorker(t, serve.Config{Executors: 1, Workers: 1, QueueCapacity: 64})
	w1, _ := newWorker(t, serve.Config{Executors: 1, Workers: 1, QueueCapacity: 64})
	reg := metrics.NewRegistry()
	r, c, _ := newRouterClient(t, Config{
		Workers: []string{w0.URL, w1.URL}, Metrics: reg,
		HealthInterval: 20 * time.Millisecond, DeadAfter: 2,
	})
	ctx := testCtx(t)

	// 512×512 jobs run for hundreds of milliseconds each: with 6 of them
	// across classes, both workers hold a backlog when the kill lands.
	type spec struct {
		id   string
		seed int64
		rows int
	}
	var specs []spec
	for i := 0; i < 6; i++ {
		specs = append(specs, spec{fmt.Sprintf("fo-%d", i), int64(i), 512 + 16*i})
	}
	for _, sp := range specs {
		if _, err := c.Submit(ctx, client.JobSpec{ID: sp.id, Rows: sp.rows, Cols: 512, Seed: sp.seed, Tile: 64}); err != nil {
			t.Fatalf("submit %s: %v", sp.id, err)
		}
	}
	// Kill a worker that actually holds jobs (consistent hashing could have
	// sent every class to one side). CloseClientConnections first: even
	// in-flight polls die the way a SIGKILL would kill them.
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

	for _, sp := range specs {
		res, err := c.Wait(ctx, sp.id)
		if err != nil {
			t.Fatalf("job %s lost after worker death: %v", sp.id, err)
		}
		direct, err := runtime.Factor(workload.Uniform(sp.seed, sp.rows, 512), runtime.Options{TileSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		dr := direct.R()
		for i := 0; i < dr.Rows; i++ {
			for k := 0; k < dr.Cols; k++ {
				if res.R[i][k] != dr.At(i, k) {
					t.Fatalf("job %s: result differs from direct factorization after failover", sp.id)
				}
			}
		}
	}
	// The death is visible: the victim dead in /workers, and at least one
	// job was re-dispatched (it had unfinished backlog when killed).
	var deadSeen bool
	for _, ws := range r.Workers() {
		if ws.URL == victimURL && !ws.Alive {
			deadSeen = true
		}
	}
	if !deadSeen {
		t.Fatalf("killed worker still alive in /workers: %+v", r.Workers())
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricRedispatches] == 0 {
		t.Fatal("no failover re-dispatches recorded (kill landed after all jobs finished?)")
	}
	if snap.Gauges[MetricWorkersAlive] != 1 {
		t.Fatalf("%s = %v, want 1", MetricWorkersAlive, snap.Gauges[MetricWorkersAlive])
	}
}

// TestRouterMintedIDsUniqueAcrossIncarnations: the workers' stores remember
// every idempotency key forever, but the router's mint counter restarts at 1
// with the process. Without a per-incarnation instance token a restarted
// router re-mints a previous life's key, the worker answers 409 with the OLD
// job, and the client silently polls an unrelated result.
func TestRouterMintedIDsUniqueAcrossIncarnations(t *testing.T) {
	w0, _ := newWorker(t, serve.Config{Store: store.NewMem()})
	postIDless := func(ts *httptest.Server) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"rows":32,"cols":32,"seed":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			ClientID string `json:"clientID"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return resp.StatusCode, st.ClientID
	}

	r1, err := New(Config{Workers: []string{w0.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(r1.Handler(""))
	code1, id1 := postIDless(ts1)
	ts1.Close()
	r1.Close()
	if code1 != http.StatusAccepted || id1 == "" {
		t.Fatalf("first incarnation: status %d, minted id %q", code1, id1)
	}

	// Second incarnation, same worker: its counter starts over, so only the
	// instance token keeps the fresh submission from colliding with id1.
	r2, err := New(Config{Workers: []string{w0.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(r2.Handler(""))
	defer ts2.Close()
	defer r2.Close()
	code2, id2 := postIDless(ts2)
	if code2 != http.StatusAccepted {
		t.Fatalf("restarted router collided with a previous incarnation's key: status %d", code2)
	}
	if id2 == id1 {
		t.Fatalf("restarted router re-minted key %q", id1)
	}
}

// TestRouterReadSurvivesRouterRestart: a restarted router has an empty job
// table, but the workers still hold the jobs — reads must fan out to the
// fleet instead of 404ing, so clients cannot tell a router from a worker.
func TestRouterReadSurvivesRouterRestart(t *testing.T) {
	w0, _ := newWorker(t, serve.Config{})
	_, c1, _ := newRouterClient(t, Config{Workers: []string{w0.URL}})
	ctx := testCtx(t)
	j, err := c1.Submit(ctx, client.JobSpec{ID: "survivor", Rows: 32, Cols: 32, Seed: 3})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	want, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}

	// A fresh router over the same worker knows nothing about the job.
	_, c2, _ := newRouterClient(t, Config{Workers: []string{w0.URL}})
	st, err := c2.Status(ctx, "survivor")
	if err != nil {
		t.Fatalf("status through fresh router: %v", err)
	}
	if st.Status != "done" {
		t.Fatalf("status = %+v, want done", st)
	}
	got, err := c2.Wait(ctx, "survivor")
	if err != nil {
		t.Fatalf("result through fresh router: %v", err)
	}
	for i := range want.R {
		for k := range want.R[i] {
			if got.R[i][k] != want.R[i][k] {
				t.Fatal("fan-out read returned a different result")
			}
		}
	}
}

// TestRouterFailoverTerminalUndelivered: a status poll can observe "done"
// moments before the worker dies with the result still unfetched. The
// failover sweep must re-dispatch such an entry anyway — "delivered"
// (result body served to a client), not "terminal", is what makes a job
// safe to leave with a dead worker. A sweep keyed on terminal strands the
// job: every result read answers 503 "being re-dispatched" forever.
func TestRouterFailoverTerminalUndelivered(t *testing.T) {
	w0, _ := newWorker(t, serve.Config{})
	w1, _ := newWorker(t, serve.Config{})
	reg := metrics.NewRegistry()
	r, c, _ := newRouterClient(t, Config{
		Workers: []string{w0.URL, w1.URL}, Metrics: reg,
		HealthInterval: 20 * time.Millisecond, DeadAfter: 2,
	})
	ctx := testCtx(t)

	if _, err := c.Submit(ctx, client.JobSpec{ID: "tud-0", Rows: 96, Cols: 64, Seed: 3}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Poll status through the router until the job is done — but never
	// fetch the result, so the router's entry is terminal yet undelivered.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Status(ctx, "tud-0")
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.Status == "done" {
			break
		}
		if st.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.Status)
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the worker that holds the finished job, result still unfetched.
	byURL := map[string]*httptest.Server{w0.URL: w0, w1.URL: w1}
	var victimURL string
	for _, ws := range r.Workers() {
		if ws.Dispatched > 0 {
			victimURL = ws.URL
		}
	}
	if victimURL == "" {
		t.Fatal("no worker received a dispatch")
	}
	victim := byURL[victimURL]
	victim.CloseClientConnections()
	victim.Close()

	// The result must still arrive: the sweep re-dispatches to the
	// survivor, which re-executes bit-identically.
	got, err := c.Wait(ctx, "tud-0")
	if err != nil {
		t.Fatalf("terminal-but-undelivered job lost after worker death: %v", err)
	}
	direct, err := runtime.Factor(workload.Uniform(3, 96, 64), runtime.Options{TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	dr := direct.R()
	for i := 0; i < dr.Rows; i++ {
		for k := 0; k < dr.Cols; k++ {
			if got.R[i][k] != dr.At(i, k) {
				t.Fatal("re-executed result differs from direct factorization")
			}
		}
	}
	if reg.Snapshot().Counters[MetricRedispatches] == 0 {
		t.Fatal("no failover re-dispatch recorded")
	}
}
