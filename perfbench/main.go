// Command perfbench is the repository's benchmark: tiled QR driven end to
// end through repro/client → internal/router → two internal/serve workers
// on internal/store file stores, and through the library (hetqr.Factor),
// with every delivered R checked against a reference factorization.
//
//	perfbench --workload svc-small --seed 1 --seconds 20 --trace 0
//	perfbench compare -base parent.log -head change.log
//
// A run prints a human-readable report, one "perfbench-record" line with
// the host fingerprint, inputs and metrics (what compare mode reads), and,
// as the last line, the result object {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones of a traced run. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	hetqr "repro"
	"repro/client"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// setupRepeats is how many times an untraced run sets the workload up; it
// reports the median and measures on the last deployment.
const setupRepeats = 5

// jobTimeout bounds a single job; a closed-loop job this slow is a failure.
const jobTimeout = 60 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: svc-small, svc-large or lib-factor")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	workdir := os.Getenv("PERFBENCH_DIR")
	if workdir == "" {
		workdir = ".bench_build"
	}
	b := &bench{
		sp: sp, seed: *seed, seconds: *seconds, traced: *trace == 1,
		dir: filepath.Join(workdir, fmt.Sprintf("perfbench-%d", os.Getpid())),
		out: stdout,
	}
	defer os.RemoveAll(b.dir)
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fp := fingerprint()
	rec := record{
		Fingerprint: fp, Workload: sp.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Start: b.start.UTC().Format(time.RFC3339Nano), Correct: res.Correct,
		Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics, Extra: b.extra,
	}
	fmt.Fprintf(stdout, "host: %s, %d CPUs, GOMAXPROCS %d, %s, commit %s, source %s\n",
		fp.CPU, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.Commit, fp.Source)
	line, _ := json.Marshal(rec)
	fmt.Fprintf(stdout, "%s %s\n", recordPrefix, line)
	line, _ = json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// bench is one benchmark run.
type bench struct {
	sp      spec
	seed    int64
	seconds float64
	traced  bool
	dir     string
	out     io.Writer

	start  time.Time
	pool   []*input
	st     *stack
	tp     *tap
	libReg *metrics.Registry
	nextID atomic.Int64
	setups int

	// jobs collects the traced phase's per-job timings; split is their
	// blocking-path split of latency_p50_ms (layer → ms).
	mu    sync.Mutex
	jobs  []*jobTiming
	split map[string]float64
	// extra are reported figures outside BENCHMARK.json.
	extra map[string]value
}

func (b *bench) run() (*result, error) {
	b.start = time.Now()
	var err error
	if b.pool, err = buildInputs(b.sp, b.seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "workload %s: seed %d, %d inputs, %d closed-loop caller(s), %gs measured, trace %v\n",
		b.sp.name, b.seed, len(b.pool), b.sp.clients, b.seconds, b.traced)
	if b.traced {
		return b.runTraced()
	}
	var setupS []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if k < setupRepeats-1 {
			b.teardown()
		}
	}
	defer b.teardown()
	ls := b.loop(time.Duration(b.seconds * float64(time.Second)))
	ls.report(b.out, "measured")
	fmt.Fprintf(b.out, "setup_s samples: %v\n", setupS)
	// latency_p99_ms and fail_ratio are reported, not gated: p99 lands on
	// one of the client's backed-off poll instants, so it jumps between runs
	// by more than any bound a run-to-run gate could hold, and a fail ratio
	// of 0 is what a correct build reads (failures gate through "failed").
	p99Beyond := len(ls.lat) - int(0.99*float64(len(ls.lat)))
	fmt.Fprintf(b.out, "latency_p99_ms %.3f ms (%d samples, %d beyond p99), fail_ratio %.6f\n",
		quantile(ls.lat, 0.99), len(ls.lat), p99Beyond, ls.failRatio())
	b.extra = map[string]value{
		"latency_p99_ms": {quantile(ls.lat, 0.99), "ms"},
		"fail_ratio":     {ls.failRatio(), "ratio"},
		"cpu_steal":      {ls.steal, "ratio"},
	}
	res := &result{
		Correct: ls.failed == 0 && len(ls.lat) > 0, Attempted: ls.attempted, Failed: ls.failed,
		Metrics: map[string]value{
			"setup_s":          {median(setupS), "s"},
			"jobs_per_s":       {ls.jobsPerS(), "1/s"},
			"latency_p50_ms":   {quantile(ls.lat, 0.50), "ms"},
			"latency_p90_ms":   {quantile(ls.lat, 0.90), "ms"},
			"alloc_kb_per_job": {ls.allocKBPerJob(), "KiB"},
		},
	}
	return res, nil
}

// setup deploys the workload (service workloads start the whole stack) and
// warms it up with one verified job per size class, so plan and DAG caches
// are filled before anything is timed.
func (b *bench) setup() error {
	if b.sp.service {
		st, err := startStack(filepath.Join(b.dir, fmt.Sprintf("stack-%d", b.setups)), b.tp)
		b.setups++
		if err != nil {
			return err
		}
		b.st = st
	}
	seen := map[[2]int]bool{}
	c := b.newCaller(0)
	for _, in := range b.pool {
		if seen[[2]int{in.rows, in.cols}] {
			continue
		}
		seen[[2]int{in.rows, in.cols}] = true
		if _, err := c.do(in); err != nil {
			return fmt.Errorf("warm-up %dx%d: %w", in.rows, in.cols, err)
		}
	}
	return nil
}

func (b *bench) teardown() {
	if b.st != nil {
		b.st.close()
		b.st = nil
	}
}

// caller is one closed-loop caller: it runs a job on the given input and
// returns its latency once a verified R is in hand.
type caller interface {
	do(in *input) (time.Duration, error)
}

func (b *bench) newCaller(idx int) caller {
	if !b.sp.service {
		return &libCaller{b: b, idx: idx}
	}
	cfg := client.Config{BaseURL: b.st.url}
	if b.tp != nil {
		// The tap reads only while enabled; the client keeps the transport
		// and timeout it has by default.
		cfg.HTTPClient = &http.Client{Timeout: 30 * time.Second, Transport: b.tp.roundTripper(sideClient, http.DefaultTransport)}
	}
	c, err := client.New(cfg)
	if err != nil {
		panic(err) // the router URL is always a valid http URL
	}
	return &svcCaller{b: b, c: c, idx: idx}
}

// loopStats is the outcome of one closed-loop phase.
type loopStats struct {
	lat       []float64 // ms, verified jobs only
	attempted int
	failed    int
	elapsed   time.Duration
	allocB    uint64
	steal     float64 // share of the host's CPU time stolen meanwhile
	errs      []string
}

func (s *loopStats) jobsPerS() float64 {
	return float64(len(s.lat)) / s.elapsed.Seconds()
}

func (s *loopStats) failRatio() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

func (s *loopStats) allocKBPerJob() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.allocB) / 1024 / float64(s.attempted)
}

func (s *loopStats) report(w io.Writer, phase string) {
	fmt.Fprintf(w, "%s: %d jobs attempted, %d failed, %.3fs, %.2f jobs/s, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, cpu steal %.1f%%\n",
		phase, s.attempted, s.failed, s.elapsed.Seconds(), s.jobsPerS(),
		quantile(s.lat, 0.5), quantile(s.lat, 0.9), quantile(s.lat, 0.99), 100*s.steal)
	for _, e := range s.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
}

// loop runs the workload's callers in a closed loop for dur: each caller
// sends its next job only after the previous one was delivered and
// verified. Jobs in flight at the deadline finish and count.
func (b *bench) loop(dur time.Duration) loopStats {
	per := make([]loopStats, b.sp.clients)
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	tot0, steal0 := cpuTimes()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each caller walks the pool in seeded random orders, one
			// permutation after another, so every run submits the same
			// balanced mix of inputs.
			rng := rand.New(rand.NewSource(b.seed*7919 + int64(i)))
			c := b.newCaller(i)
			s := &per[i]
			var order []int
			for time.Since(start) < dur {
				if len(order) == 0 {
					order = rng.Perm(len(b.pool))
				}
				in := b.pool[order[0]]
				order = order[1:]
				lat, err := c.do(in)
				s.attempted++
				if err != nil {
					s.failed++
					if len(s.errs) < 3 {
						s.errs = append(s.errs, err.Error())
					}
					continue
				}
				s.lat = append(s.lat, ms(lat))
			}
		}(i)
	}
	wg.Wait()
	var all loopStats
	all.elapsed = time.Since(start)
	tot1, steal1 := cpuTimes()
	if tot1 > tot0 {
		all.steal = float64(steal1-steal0) / float64(tot1-tot0)
	}
	goruntime.ReadMemStats(&m1)
	all.allocB = m1.TotalAlloc - m0.TotalAlloc
	for _, s := range per {
		all.lat = append(all.lat, s.lat...)
		all.attempted += s.attempted
		all.failed += s.failed
		all.errs = append(all.errs, s.errs...)
	}
	return all
}

// jobTiming is one traced job's timeline as the benchmark saw it: call
// start (t0), Submit returned (t1; lib jobs: Factor returned), Wait
// returned (t2; lib jobs: R extracted) and R verified (t3).
type jobTiming struct {
	id             string
	in             *input
	t0, t1, t2, t3 time.Time
	// spans are the worker's (or, for lib jobs, the library's) obs spans
	// of the job; nil when the trace could not be found.
	spans     []obs.Span
	caller    int
	batchSize int
	worker    int
	// gauges sampled after the job: runtime.queue_peak and
	// runtime.exec_alloc_objects of the registry that ran it.
	queuePeak, execAllocs float64
}

func (b *bench) tracing() bool { return b.tp != nil && b.tp.on.Load() }

func (b *bench) addJob(jt *jobTiming) {
	b.mu.Lock()
	b.jobs = append(b.jobs, jt)
	b.mu.Unlock()
}

type svcCaller struct {
	b   *bench
	c   *client.Client
	idx int
}

func (s *svcCaller) do(in *input) (time.Duration, error) {
	id := fmt.Sprintf("pb-%d-%d", s.b.seed, s.b.nextID.Add(1))
	js := client.JobSpec{ID: id, TraceID: id, Rows: in.rows, Cols: in.cols, Tile: tileSize}
	if in.inline {
		js.Data = in.a.Data
	} else {
		js.Seed = in.seed
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	if !s.b.tracing() {
		t0 := time.Now()
		res, err := s.c.Factor(ctx, js)
		if err == nil {
			err = checkRows(res.R, in.ref)
		}
		return time.Since(t0), err
	}
	jt := &jobTiming{id: id, in: in, caller: s.idx, worker: -1}
	jt.t0 = time.Now()
	job, err := s.c.Submit(ctx, js)
	if err != nil && !errors.Is(err, client.ErrDuplicate) {
		return 0, err
	}
	jt.t1 = time.Now()
	res, err := job.Wait(ctx)
	jt.t2 = time.Now()
	if err == nil {
		err = checkRows(res.R, in.ref)
	}
	jt.t3 = time.Now()
	if err != nil {
		return 0, err
	}
	s.b.collectWorkerTrace(jt)
	s.b.addJob(jt)
	return jt.t3.Sub(jt.t0), nil
}

// collectWorkerTrace fetches the job's span tree from the worker that ran
// it. A worker stores the trace just after it publishes the result, so the
// lookup waits briefly for it.
func (b *bench) collectWorkerTrace(jt *jobTiming) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		for wi, w := range b.st.workers {
			if tr, ok := w.traces.Get(obs.TraceID(jt.id)); ok {
				jt.spans = tr.Spans()
				jt.worker = wi
				// Absent or malformed, the job counts as a batch of one.
				jt.batchSize, _ = strconv.Atoi(tr.Attr("batch_size"))
				snap := w.reg.Snapshot()
				jt.queuePeak = snap.Gauges["runtime.queue_peak"]
				jt.execAllocs = snap.Gauges["runtime.exec_alloc_objects"]
				return
			}
		}
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

type libCaller struct {
	b   *bench
	idx int
}

func (l *libCaller) do(in *input) (time.Duration, error) {
	opts := hetqr.Options{TileSize: tileSize, Workers: goruntime.GOMAXPROCS(0)}
	traced := l.b.tracing()
	var jt *jobTiming
	if traced {
		jt = &jobTiming{id: fmt.Sprintf("pb-%d-%d", l.b.seed, l.b.nextID.Add(1)), in: in, caller: l.idx, batchSize: 1}
		opts.Metrics = l.b.libReg
		opts.Trace = obs.NewTrace(obs.TraceID(jt.id))
	}
	t0 := time.Now()
	f, err := hetqr.Factor(in.a, opts)
	if err != nil {
		return 0, err
	}
	tf := time.Now()
	r := f.R()
	tr := time.Now()
	err = checkMatrix(r, in.ref)
	t3 := time.Now()
	if err != nil || !traced {
		return t3.Sub(t0), err
	}
	jt.t0, jt.t1, jt.t2, jt.t3 = t0, tf, tr, t3
	opts.Trace.Finish(nil)
	jt.spans = opts.Trace.Spans()
	g := l.b.libReg.Snapshot().Gauges
	jt.queuePeak, jt.execAllocs = g["runtime.queue_peak"], g["runtime.exec_alloc_objects"]
	l.b.addJob(jt)
	return t3.Sub(t0), nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
