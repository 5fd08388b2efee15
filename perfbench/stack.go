package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/store"
)

// numWorkers is the qrserve fleet size behind the router.
const numWorkers = 2

// workerNode is one in-process qrserve worker with its own file store.
type workerNode struct {
	// url is the stable name the router knows the worker by; the router's
	// transport maps it to the real loopback listener (see stack.dialer).
	url    string
	addr   string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	fs     store.FileStore
	reg    *metrics.Registry
	traces *obs.Store
}

// stack is the service under test: two qrserve workers, each on a
// WAL-backed file store, behind a qrrouter with a file-backed dispatch
// journal, all in this process over loopback. Every component gets the
// defaults of the qrserve and qrrouter commands; the benchmark only
// chooses where they listen and, in traced runs, wraps the stores and
// transports it is allowed to inject.
type stack struct {
	dir       string
	workers   []*workerNode
	router    *router.Router
	rreg      *metrics.Registry
	rstate    store.FileStore
	rhs       *http.Server
	rserved   chan error
	url       string
	transport *http.Transport
}

// workerURL names worker i. Worker URLs are what the router's hash ring
// hashes, so they must not depend on the ephemeral ports the listeners get:
// with fixed names every run places each size class on the same worker.
func workerURL(i int) string { return fmt.Sprintf("http://qr-worker-%d.perfbench", i) }

// startStack brings the service up under dir and waits until the router
// and every worker answer their health checks. tp, when non-nil, wraps the
// router→worker transport, the router journal and the worker stores.
func startStack(dir string, tp *tap) (st *stack, err error) {
	st = &stack{dir: dir}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create stack dir: %w", err)
	}
	realAddr := map[string]string{}
	for i := 0; i < numWorkers; i++ {
		w, err := startWorker(filepath.Join(dir, fmt.Sprintf("worker-%d", i)), workerURL(i), tp)
		if w != nil {
			st.workers = append(st.workers, w)
		}
		if err != nil {
			return nil, err
		}
		realAddr[w.url[len("http://"):]+":80"] = w.addr
	}

	var d net.Dialer
	st.transport = http.DefaultTransport.(*http.Transport).Clone()
	st.transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := realAddr[addr]; ok {
			addr = real
		}
		return d.DialContext(ctx, network, addr)
	}
	var rt http.RoundTripper = st.transport
	st.rreg = metrics.NewRegistry()
	st.rstate, err = store.NewFile(filepath.Join(dir, "router"), store.FileOptions{Fsync: true, Metrics: st.rreg})
	if err != nil {
		return nil, fmt.Errorf("open router journal: %w", err)
	}
	var journal store.JobStore = st.rstate
	if tp != nil {
		rt = tp.roundTripper(sideRouter, rt)
		journal = tp.store(storeJournal, st.rstate)
	}
	urls := make([]string, len(st.workers))
	for i, w := range st.workers {
		urls[i] = w.url
	}
	st.router, err = router.New(router.Config{
		Workers:    urls,
		State:      journal,
		HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: rt},
		Metrics:    st.rreg,
	})
	if err != nil {
		return nil, fmt.Errorf("start router: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("router listen: %w", err)
	}
	st.url = "http://" + ln.Addr().String()
	st.rhs = &http.Server{Handler: st.router.Handler("")}
	st.rserved = make(chan error, 1)
	go func() { st.rserved <- st.rhs.Serve(ln) }()
	if err := st.waitHealthy(10 * time.Second); err != nil {
		return nil, err
	}
	return st, nil
}

func startWorker(dir, url string, tp *tap) (*workerNode, error) {
	w := &workerNode{url: url, reg: metrics.NewRegistry()}
	var err error
	w.fs, err = store.NewFile(dir, store.FileOptions{Fsync: true, Metrics: w.reg})
	if err != nil {
		return nil, fmt.Errorf("open worker store: %w", err)
	}
	var js store.JobStore = w.fs
	if tp != nil {
		js = tp.store(storeWorker, w.fs)
	}
	w.traces = obs.NewStore(256, 1, w.reg)
	w.srv = serve.New(serve.Config{Metrics: w.reg, Trace: w.traces, Store: js})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return w, fmt.Errorf("worker listen: %w", err)
	}
	w.addr = ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler("")}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	return w, nil
}

// waitHealthy polls the router's and every worker's /healthz, and the
// router's view of its workers, until all are up.
func (st *stack) waitHealthy(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second, Transport: st.transport}
	ok := func(url string) bool {
		resp, err := hc.Get(url + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	deadline := time.Now().Add(limit)
	for {
		up := ok(st.url)
		for _, w := range st.workers {
			up = up && ok(w.url)
		}
		for _, ws := range st.router.Workers() {
			up = up && ws.Alive
		}
		if up {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("service did not become healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the router, drains and stops the workers, closes the stores
// and removes the stack's directory. Safe on a partly started stack.
func (st *stack) close() {
	if st.rhs != nil {
		_ = st.rhs.Close()
		<-st.rserved
	}
	if st.router != nil {
		st.router.Close()
	}
	if st.rstate != nil {
		_ = st.rstate.Close()
	}
	for _, w := range st.workers {
		if w.hs != nil {
			_ = w.hs.Close()
			<-w.served
		}
		w.srv.Close()
		_ = w.fs.Close()
	}
	if st.transport != nil {
		st.transport.CloseIdleConnections()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	_ = os.RemoveAll(st.dir)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
