package main

import (
	"fmt"
	"io"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/store"
)

// metricDef names a reported metric with its unit and direction.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"alloc_kb_per_job", "KiB", "lower"},
}

// perLayer are the metrics of a traced run, named <module>.<metric>.
// Timings are p50 over the traced jobs unless the name says otherwise;
// *_per_job values are totals divided by the traced jobs. Layers a
// workload does not call (client, router, serve, store and sched on
// lib-factor) report 0.
var perLayer = []metricDef{
	{"client.submit_ms", "ms", "lower"},
	{"client.wait_ms", "ms", "lower"},
	{"client.polls_per_job", "count", "lower"},
	{"client.poll_lag_ms", "ms", "lower"},
	{"client.request_bytes_per_job", "B", "lower"},
	{"client.response_bytes_per_job", "B", "lower"},
	{"client.retries_per_job", "count", "lower"},
	{"router.proxy_submit_ms", "ms", "lower"},
	{"router.proxy_result_ms", "ms", "lower"},
	{"router.journal_ms", "ms", "lower"},
	{"router.journal_ops_per_job", "count", "lower"},
	{"router.worker_share_max", "ratio", "lower"},
	{"router.backpressure_429", "count", "lower"},
	{"router.failover_redispatches", "count", "lower"},
	{"router.fanout_reads", "count", "lower"},
	{"serve.admission_ms", "ms", "lower"},
	{"serve.queue_ms", "ms", "lower"},
	{"serve.plan_ms", "ms", "lower"},
	{"serve.batch_ms", "ms", "lower"},
	{"serve.execute_ms", "ms", "lower"},
	{"serve.verify_ms", "ms", "lower"},
	{"serve.http_submit_ms", "ms", "lower"},
	{"serve.http_result_ms", "ms", "lower"},
	{"serve.queue_wait_p90_ms", "ms", "lower"},
	{"serve.batch_size_mean", "jobs", "higher"},
	{"serve.admission_rejects", "count", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.put_p99_ms", "ms", "lower"},
	{"store.mark_ms", "ms", "lower"},
	{"store.set_result_ms", "ms", "lower"},
	{"store.ops_per_job", "count", "lower"},
	{"store.fsyncs_per_job", "count", "lower"},
	{"store.wal_bytes_per_job", "B", "lower"},
	{"runtime.factor_ms", "ms", "lower"},
	{"runtime.busy_ratio", "ratio", "higher"},
	{"runtime.queue_peak", "count", "higher"},
	{"runtime.exec_alloc_objects", "count", "lower"},
	{"kernels.T.calls_per_job", "count", "lower"},
	{"kernels.UT.calls_per_job", "count", "lower"},
	{"kernels.E.calls_per_job", "count", "lower"},
	{"kernels.UE.calls_per_job", "count", "lower"},
	{"kernels.T.us_per_call", "us", "lower"},
	{"kernels.UT.us_per_call", "us", "lower"},
	{"kernels.E.us_per_call", "us", "lower"},
	{"kernels.UE.us_per_call", "us", "lower"},
	{"kernels.T.gflops", "GFLOP/s", "higher"},
	{"kernels.UT.gflops", "GFLOP/s", "higher"},
	{"kernels.E.gflops", "GFLOP/s", "higher"},
	{"kernels.UE.gflops", "GFLOP/s", "higher"},
	{"kernels.flops_per_job", "flop", "lower"},
	{"kernels.bytes_per_job", "B", "lower"},
	{"kernels.share", "ratio", "higher"},
	{"kernels.efficiency_ratio", "ratio", "higher"},
	{"tiled.tile_ms", "ms", "lower"},
	{"tiled.dag_build_ms", "ms", "lower"},
	{"tiled.r_extract_ms", "ms", "lower"},
	{"sched.plan_ms", "ms", "lower"},
	{"bench.unattributed_ms", "ms", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
}

// snapshot is the state of the deployment's counters at one instant.
type snapshot struct {
	workers    []metrics.Snapshot
	router     metrics.Snapshot
	lib        metrics.Snapshot
	walBytes   int64
	dispatched []int64
}

func (b *bench) snapshot() snapshot {
	var s snapshot
	if b.st != nil {
		for _, w := range b.st.workers {
			s.workers = append(s.workers, w.reg.Snapshot())
			s.walBytes += dirBytes(w.fs.Dir())
		}
		s.router = b.st.rreg.Snapshot()
		for _, ws := range b.st.router.Workers() {
			s.dispatched = append(s.dispatched, ws.Dispatched)
		}
	}
	if b.libReg != nil {
		s.lib = b.libReg.Snapshot()
	}
	return s
}

// runtimeSnaps are the registries the runtime reported into.
func (s snapshot) runtimeSnaps() []metrics.Snapshot {
	if s.workers != nil {
		return s.workers
	}
	return []metrics.Snapshot{s.lib}
}

func counterDelta(before, after []metrics.Snapshot, prefix string) float64 {
	var d int64
	for i := range after {
		d += after[i].SumCounters(prefix) - before[i].SumCounters(prefix)
	}
	return float64(d)
}

func histDelta(before, after []metrics.Snapshot, name string) (count, sum float64) {
	for i := range after {
		count += float64(after[i].Histograms[name].Count - before[i].Histograms[name].Count)
		sum += after[i].Histograms[name].Sum - before[i].Histograms[name].Sum
	}
	return count, sum
}

// runTraced sets the workload up with the tap installed, measures an
// untraced phase and then a traced phase of seconds/2 each, and derives the
// per-layer metrics from the traced phase.
func (b *bench) runTraced() (*result, error) {
	b.tp = newTap()
	b.libReg = metrics.NewRegistry()
	if err := b.setup(); err != nil {
		return nil, err
	}
	defer b.teardown()
	half := time.Duration(b.seconds * float64(time.Second) / 2)
	plain := b.loop(half)
	plain.report(b.out, "untraced phase")
	before := b.snapshot()
	b.tp.on.Store(true)
	traced := b.loop(half)
	b.tp.on.Store(false)
	after := b.snapshot()
	traced.report(b.out, "traced phase")

	ct := newChromeTrace(b.start)
	a := newAccum()
	for i, jt := range b.jobs {
		if b.sp.service {
			b.svcJob(jt, a, ct, i < 2)
		} else {
			b.libJob(jt, a, ct, i < 2)
		}
	}
	if a.jobs == 0 {
		return nil, fmt.Errorf("no traced job could be broken down by layer (%d traced)", len(b.jobs))
	}
	m := b.layerMetrics(a, before, after, plain.jobsPerS(), traced.jobsPerS())
	latP50 := quantile(a.lat, 0.5)
	var band int
	b.split, band = a.layerSplit(latP50)
	printSplit(b.out, b.split, band, latP50)
	m["bench.unattributed_ms"] = value{b.split[unattributed], "ms"}

	path := filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("trace-%s-seed%d.json", b.sp.name, b.seed))
	if err := ct.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "chrome trace: %s (%d spans of %d jobs; kernel spans for the first 2)\n", path, ct.next, len(b.jobs))
	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	return &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m,
	}, nil
}

// accum gathers the traced jobs' per-layer values.
type accum struct {
	jobs       int
	incomplete int
	lat        []float64
	samples    map[string][]float64
	totals     map[string]float64
	// rows are the jobs' blocking-path splits, for the layer table.
	rows []tableRow
	// busy and capacity accumulate kernel time and worker time (ms) for
	// runtime.busy_ratio.
	busy, capacity float64
}

type tableRow struct {
	lat    float64
	pieces map[string]float64
}

func newAccum() *accum {
	return &accum{samples: map[string][]float64{}, totals: map[string]float64{}}
}

func (a *accum) add(name string, v float64)   { a.samples[name] = append(a.samples[name], v) }
func (a *accum) total(name string, v float64) { a.totals[name] += v }

// spanSet indexes a job's obs spans.
type spanSet struct {
	byName  map[string]obs.Span
	kernels []obs.Span
	root    obs.Span
}

func indexSpans(spans []obs.Span) spanSet {
	s := spanSet{byName: map[string]obs.Span{}}
	for _, sp := range spans {
		switch sp.Kind {
		case obs.KindJob:
			s.root = sp
		case obs.KindPhase:
			if _, ok := s.byName[sp.Name]; !ok {
				s.byName[sp.Name] = sp
			}
		case obs.KindKernel:
			if sp.Err == "" {
				s.kernels = append(s.kernels, sp)
			}
		}
	}
	return s
}

func (s spanSet) dur(name string) float64 {
	sp, ok := s.byName[name]
	if !ok || sp.End.IsZero() {
		return 0
	}
	return ms(sp.End.Sub(sp.Start))
}

// kernelTime returns the summed kernel span time and the time covered by
// at least one kernel span (both ms).
func (s spanSet) kernelTime() (sum, covered float64) {
	iv := make([][2]time.Time, 0, len(s.kernels))
	for _, k := range s.kernels {
		sum += ms(k.End.Sub(k.Start))
		iv = append(iv, [2]time.Time{k.Start, k.End})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var cur [2]time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(cur[1]) {
			if i > 0 {
				covered += ms(cur[1].Sub(cur[0]))
			}
			cur = x
		} else if x[1].After(cur[1]) {
			cur[1] = x[1]
		}
	}
	if len(iv) > 0 {
		covered += ms(cur[1].Sub(cur[0]))
	}
	return sum, covered
}

// pick returns the first (or last) event of a kind, optionally with a given
// status code.
func pick(evs []httpEvent, kind string, code int, last bool) (httpEvent, bool) {
	var out httpEvent
	found := false
	for _, e := range evs {
		if e.kind == kind && (code == 0 || e.code == code) {
			out, found = e, true
			if !last {
				break
			}
		}
	}
	return out, found
}

func pickStore(evs []storeEvent, op string) (storeEvent, bool) {
	for _, e := range evs {
		if e.op == op {
			return e, true
		}
	}
	return storeEvent{}, false
}

func span(s, e time.Time) float64 { return ms(e.Sub(s)) }

// svcJob breaks one traced service job down by layer. Its blocking path is
// the submission's way in (client encode, router hop and journal, worker
// decode, admission with its plan lookup and WAL put), the job's way
// through the worker (queue, batch assembly, execution, finish), the
// client noticing completion (poll lag) and the result's way out (worker
// encode, router relay, client decode). The submission's response travels
// back while the job queues and executes, so it is off the path.
func (b *bench) svcJob(jt *jobTiming, a *accum, ct *chromeTrace, withKernels bool) {
	ev := b.tp.events(jt.id)
	if ev == nil || jt.spans == nil {
		a.incomplete++
		return
	}
	cl, rt := ev.http[sideClient], ev.http[sideRouter]
	subC, ok1 := pick(cl, reqSubmit, 0, false)
	accC, ok2 := pick(cl, reqSubmit, 202, true)
	subR, ok3 := pick(rt, reqSubmit, 202, true)
	resC, ok4 := pick(cl, reqResult, 200, true)
	resR, ok5 := pick(rt, reqResult, 200, true)
	put, ok6 := pickStore(ev.store[storeWorker], "put")
	track, ok7 := pickStore(ev.store[storeJournal], "put")
	var term httpEvent
	ok8 := false
	for _, e := range cl {
		if e.kind == reqStatus && (e.status == "done" || e.status == "failed") {
			term, ok8 = e, true
			break
		}
	}
	sp := indexSpans(jt.spans)
	adm, okA := sp.byName[obs.SpanAdmission]
	queue, okQ := sp.byName[obs.SpanQueue]
	exec, okE := sp.byName[obs.SpanExecute]
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7 && ok8 && okA && okQ && okE) {
		a.incomplete++
		return
	}
	a.jobs++
	lat := span(jt.t0, jt.t3)
	a.lat = append(a.lat, lat)

	var reqB, respB, retries float64
	for _, e := range cl {
		reqB += float64(e.reqBytes)
		respB += float64(e.respBytes)
		if e.failed || e.code == 429 || e.code == 503 {
			retries++
		}
		if e.kind == reqStatus {
			a.total("client.polls", 1)
		}
	}
	a.total("client.req_bytes", reqB)
	a.total("client.resp_bytes", respB)
	a.total("client.retries", retries)
	fin := queue.Start.Add(time.Duration(term.elapsedMS * float64(time.Millisecond)))
	a.add("client.submit_ms", span(jt.t0, jt.t1))
	a.add("client.wait_ms", span(jt.t1, jt.t2))
	a.add("client.poll_lag_ms", span(fin, term.end))

	var journalMS float64
	for _, e := range ev.store[storeJournal] {
		journalMS += span(e.start, e.end)
	}
	a.total("router.journal_ops", float64(len(ev.store[storeJournal])))
	a.add("router.journal_ms", journalMS)
	a.add("router.proxy_submit_ms", span(accC.start, accC.end)-span(subR.start, subR.end))
	a.add("router.proxy_result_ms", span(resC.start, resC.end)-span(resR.start, resR.end))

	planMS, putMS := sp.dur(obs.SpanPlan), span(put.start, put.end)
	admSelf := span(adm.Start, adm.End) - planMS - putMS
	kSum, kCovered := sp.kernelTime()
	execMS := span(exec.Start, exec.End)
	a.add("serve.admission_ms", admSelf)
	// The queue span opens when the job was built, before the WAL put and
	// the rest of admission; only the wait after admission is the queue's.
	a.add("serve.queue_ms", span(adm.End, queue.End))
	a.add("serve.plan_ms", planMS)
	a.add("serve.batch_ms", sp.dur(obs.SpanBatch))
	a.add("serve.execute_ms", execMS-kCovered)
	a.add("serve.verify_ms", sp.dur(obs.SpanVerify))
	a.add("serve.http_submit_ms", span(subR.start, subR.end)-span(adm.Start, adm.End))
	a.add("serve.http_result_ms", span(resR.start, resR.end))

	for _, e := range ev.store[storeWorker] {
		a.add("store."+e.op+"_ms", span(e.start, e.end))
	}
	a.total("store.ops", float64(len(ev.store[storeWorker])))

	// The batch ran k same-class jobs on p workers; its execute span is
	// this job's too. Jobs of one class do identical kernel work, so the
	// batch's kernel time is k times this job's.
	k := float64(max(jt.batchSize, 1))
	p := b.classWorkers(jt)
	kernMS := min(execMS, kSum*k/p)
	a.busy += kSum
	a.capacity += p * execMS / k
	a.add("runtime.factor_ms", execMS)
	a.add("runtime.queue_peak", jt.queuePeak)
	a.add("runtime.exec_alloc_objects", jt.execAllocs)
	a.add("kernels.share", kernMS/lat)
	b.addWork(a, jt)

	pieces := map[string]float64{
		"client.encode":         span(jt.t0, subC.start),
		"router.submit_hop":     span(subC.start, subR.start) - span(track.start, track.end),
		"router.journal":        span(track.start, track.end),
		"serve.http_decode":     span(subR.start, adm.Start),
		"serve.admission":       admSelf,
		"serve.plan":            planMS,
		"store.put":             putMS,
		"serve.queue":           span(adm.End, queue.End),
		"serve.batch":           sp.dur(obs.SpanBatch),
		"kernels.compute":       kernMS,
		"runtime.executor":      execMS - kernMS,
		"serve.finish":          span(exec.End, fin),
		"client.poll_lag":       span(fin, term.end),
		"client.result_request": span(term.end, resC.start),
		"router.result_relay":   span(resC.start, resC.end) - span(resR.start, resR.end),
		"serve.http_result":     span(resR.start, resR.end),
		"client.decode":         span(resC.end, jt.t2),
	}
	a.rows = append(a.rows, tableRow{lat: lat, pieces: pieces})
	b.chromeSvc(ct, jt, ev, sp, withKernels)
}

// classWorkers is the batch parallelism the worker gave the job's class:
// the class plan's device count, capped at GOMAXPROCS.
func (b *bench) classWorkers(jt *jobTiming) float64 {
	key := fmt.Sprintf("%dx%d/b%d/flat-ts", jt.in.rows, jt.in.cols, tileSize)
	g := b.st.workers[jt.worker].reg.Snapshot().Gauges[metrics.With(serve.MetricPlanP, "class", key)]
	return max(1, min(g, float64(goruntime.GOMAXPROCS(0))))
}

// addWork records the job's computed kernel work.
func (b *bench) addWork(a *accum, jt *jobTiming) {
	w := workOf(jt.in.rows, jt.in.cols)
	for _, s := range steps {
		a.total("kernels."+s+".calls", w.calls[s])
	}
	a.total("kernels.flops", w.flops)
	a.total("kernels.bytes", w.bytes)
}

// libJob breaks one traced hetqr.Factor job down: tiling and DAG
// construction (the library's plan span), kernel execution and executor
// overhead (its execute span), the rest of Factor, R extraction.
func (b *bench) libJob(jt *jobTiming, a *accum, ct *chromeTrace, withKernels bool) {
	sp := indexSpans(jt.spans)
	if _, ok := sp.byName[obs.SpanExecute]; !ok {
		a.incomplete++
		return
	}
	a.jobs++
	lat := span(jt.t0, jt.t3)
	a.lat = append(a.lat, lat)
	planMS, execMS := sp.dur(obs.SpanPlan), sp.dur(obs.SpanExecute)
	kSum, _ := sp.kernelTime()
	p := float64(goruntime.GOMAXPROCS(0))
	kernMS := min(execMS, kSum/p)
	a.busy += kSum
	a.capacity += p * execMS
	factorMS := span(jt.t0, jt.t1)
	a.add("runtime.factor_ms", factorMS)
	a.add("runtime.queue_peak", jt.queuePeak)
	a.add("runtime.exec_alloc_objects", jt.execAllocs)
	a.add("kernels.share", kernMS/lat)
	b.addWork(a, jt)
	a.rows = append(a.rows, tableRow{lat: lat, pieces: map[string]float64{
		"tiled.tile_and_dag":   planMS,
		"kernels.compute":      kernMS,
		"runtime.executor":     execMS - kernMS,
		"runtime.factor_other": factorMS - planMS - execMS,
		"tiled.r_extract":      span(jt.t1, jt.t2),
	}})

	root := ct.span(jt.id, "job", "bench", pidLibrary, 0, jt.t0, jt.t3, 0)
	fac := ct.span(jt.id, "hetqr.Factor", "runtime", pidLibrary, 0, jt.t0, jt.t1, root)
	chromeObs(ct, jt, sp, pidLibrary, 0, fac, withKernels)
	ct.span(jt.id, "tiled.R", "tiled", pidLibrary, 0, jt.t1, jt.t2, root)
	ct.span(jt.id, "bench.verify", "bench", pidLibrary, 0, jt.t2, jt.t3, root)
}

// chromeObs adds a job's obs spans (the worker's or the library's) under
// parent. Kernel spans go to one lane per runtime worker.
func chromeObs(ct *chromeTrace, jt *jobTiming, sp spanSet, pid, tid, parent int, withKernels bool) int {
	ids := map[obs.SpanID]int{}
	root := ct.span(jt.id, "obs.job", "serve", pid, tid, sp.root.Start, sp.root.End, parent)
	ids[sp.root.ID] = root
	for _, s := range jt.spans {
		if s.Kind != obs.KindPhase || s.End.IsZero() {
			continue
		}
		ids[s.ID] = ct.span(jt.id, s.Name, "serve", pid, tid, s.Start, s.End, ids[s.Parent])
	}
	if withKernels {
		for _, s := range sp.kernels {
			// Runtime workers are named worker-<i>; an unexpected name
			// shares lane 0.
			w, _ := strconv.Atoi(strings.TrimPrefix(s.Worker, "worker-"))
			ct.span(jt.id, s.Name, "kernels."+s.Step, pid, 100+w, s.Start, s.End, ids[s.Parent])
		}
	}
	return root
}

// chromeSvc adds a service job's spans: the benchmark's calls into the
// client, the client's and the router's round trips, the router journal
// and worker store calls, and the worker's obs spans.
func (b *bench) chromeSvc(ct *chromeTrace, jt *jobTiming, ev *jobEvents, sp spanSet, withKernels bool) {
	tid := jt.caller
	root := ct.span(jt.id, "job", "bench", pidClient, tid, jt.t0, jt.t3, 0)
	sub := ct.span(jt.id, "client.Submit", "client", pidClient, tid, jt.t0, jt.t1, root)
	wait := ct.span(jt.id, "client.Wait", "client", pidClient, tid, jt.t1, jt.t2, root)
	ct.span(jt.id, "bench.verify", "bench", pidClient, tid, jt.t2, jt.t3, root)
	type placed struct {
		ev httpEvent
		id int
	}
	var clientSpans []placed
	for _, e := range ev.http[sideClient] {
		parent := wait
		if e.kind == reqSubmit {
			parent = sub
		}
		id := ct.span(jt.id, fmt.Sprintf("client %s %d", e.kind, e.code), "client", pidClient, tid, e.start, e.end, parent)
		clientSpans = append(clientSpans, placed{e, id})
	}
	// enclosing is the client round trip (of the given kind, or of any
	// kind for "") during which t fell.
	enclosing := func(kind string, t time.Time) int {
		for _, c := range clientSpans {
			if (kind == "" || c.ev.kind == kind) && !t.Before(c.ev.start) && !t.After(c.ev.end) {
				return c.id
			}
		}
		return root
	}
	workerParent := root
	for _, e := range ev.http[sideRouter] {
		id := ct.span(jt.id, fmt.Sprintf("router→worker %s %d", e.kind, e.code), "router", pidRouter, tid, e.start, e.end, enclosing(e.kind, e.start))
		if e.kind == reqSubmit && e.code == 202 {
			workerParent = id
		}
	}
	for _, e := range ev.store[storeJournal] {
		ct.span(jt.id, "router.journal."+e.op, "router", pidRouter, tid, e.start, e.end, enclosing("", e.start))
	}
	pid := pidWorker0 + jt.worker
	wroot := chromeObs(ct, jt, sp, pid, tid, workerParent, withKernels)
	for _, e := range ev.store[storeWorker] {
		ct.span(jt.id, "store."+e.op, "store", pid, tid, e.start, e.end, wroot)
	}
}

// layerMetrics turns the accumulated jobs and the counter deltas of the
// traced phase into the per-layer metrics.
func (b *bench) layerMetrics(a *accum, before, after snapshot, plainJPS, tracedJPS float64) map[string]value {
	vals := map[string]float64{}
	jobs := float64(a.jobs)
	for name, xs := range a.samples {
		vals[name] = median(xs)
	}
	vals["store.put_p99_ms"] = quantile(a.samples["store.put_ms"], 0.99)
	vals["serve.queue_wait_p90_ms"] = quantile(a.samples["serve.queue_ms"], 0.90)
	perJob := map[string]string{
		"client.polls_per_job":          "client.polls",
		"client.request_bytes_per_job":  "client.req_bytes",
		"client.response_bytes_per_job": "client.resp_bytes",
		"client.retries_per_job":        "client.retries",
		"router.journal_ops_per_job":    "router.journal_ops",
		"store.ops_per_job":             "store.ops",
		"kernels.flops_per_job":         "kernels.flops",
		"kernels.bytes_per_job":         "kernels.bytes",
	}
	for _, s := range steps {
		perJob["kernels."+s+".calls_per_job"] = "kernels." + s + ".calls"
	}
	for name, tot := range perJob {
		vals[name] = a.totals[tot] / jobs
	}
	if a.capacity > 0 {
		vals["runtime.busy_ratio"] = a.busy / a.capacity
	}

	if b.sp.service {
		vals["router.backpressure_429"] = counterDelta([]metrics.Snapshot{before.router}, []metrics.Snapshot{after.router}, router.MetricBackpressure)
		vals["router.failover_redispatches"] = counterDelta([]metrics.Snapshot{before.router}, []metrics.Snapshot{after.router}, router.MetricRedispatches)
		vals["router.fanout_reads"] = counterDelta([]metrics.Snapshot{before.router}, []metrics.Snapshot{after.router}, router.MetricFanoutReads)
		var total, top float64
		for i := range after.dispatched {
			d := float64(after.dispatched[i] - before.dispatched[i])
			total += d
			top = max(top, d)
		}
		if total > 0 {
			vals["router.worker_share_max"] = top / total
		}
		done := counterDelta(before.workers, after.workers, serve.MetricJobsDone)
		if batches := counterDelta(before.workers, after.workers, serve.MetricBatches); batches > 0 {
			vals["serve.batch_size_mean"] = done / batches
		}
		vals["serve.admission_rejects"] = counterDelta(before.workers, after.workers, serve.MetricRejects)
		vals["store.fsyncs_per_job"] = counterDelta(before.workers, after.workers, store.MetricFsyncs) / jobs
		vals["store.wal_bytes_per_job"] = float64(after.walBytes-before.walBytes) / jobs
	}

	// Kernels: in-job µs per call from the runtime's op_us histograms,
	// isolated single-thread rates from timing the Ws kernels alone.
	isoUS, flopsPerCall := isolatedKernelUS(), perCallFlops()
	var isoJobUS float64
	for _, s := range steps {
		n, sum := histDelta(before.runtimeSnaps(), after.runtimeSnaps(), metrics.With(runtime.MetricOpUS, "step", s))
		if n > 0 {
			vals["kernels."+s+".us_per_call"] = sum / n
		}
		vals["kernels."+s+".gflops"] = flopsPerCall[s] / isoUS[s] / 1e3
		isoJobUS += vals["kernels."+s+".calls_per_job"] * isoUS[s]
	}
	if isoJobUS > 0 {
		isoGFLOPS := vals["kernels.flops_per_job"] / isoJobUS / 1e3
		vals["kernels.efficiency_ratio"] = vals["kernels.flops_per_job"] * plainJPS / 1e9 / isoGFLOPS
	}

	// Tiled and sched calls timed on their own at each job's shape.
	times := map[[2]int]shapeTimes{}
	var tile, dag, rx, plan []float64
	for _, jt := range b.jobs {
		shape := [2]int{jt.in.rows, jt.in.cols}
		t, ok := times[shape]
		if !ok {
			t = timeShape(jt.in)
			times[shape] = t
		}
		tile, dag, rx, plan = append(tile, t.tile), append(dag, t.dag), append(rx, t.rExtract), append(plan, t.plan)
	}
	vals["tiled.tile_ms"], vals["tiled.dag_build_ms"], vals["tiled.r_extract_ms"] = mean(tile), mean(dag), mean(rx)
	if b.sp.service {
		vals["sched.plan_ms"] = mean(plan)
	}
	if tracedJPS > 0 {
		vals["bench.trace_overhead_ratio"] = plainJPS / tracedJPS
	}
	fmt.Fprintf(b.out, "traced jobs broken down: %d (%d without a complete trace)\n", a.jobs, a.incomplete)

	out := map[string]value{}
	for _, d := range perLayer {
		out[d.name] = value{vals[d.name], d.unit}
	}
	return out
}

// layerSplit splits latency_p50_ms along the blocking path: each piece is
// the mean over the jobs whose latency lies between p45 and p55 (at least
// the three nearest p50), and bench.unattributed is what remains of
// latency_p50_ms, so the pieces add up to it exactly.
func (a *accum) layerSplit(p50 float64) (pieces map[string]float64, band int) {
	rows := append([]tableRow(nil), a.rows...)
	sort.Slice(rows, func(i, j int) bool {
		return abs(rows[i].lat-p50) < abs(rows[j].lat-p50)
	})
	lo, hi := quantile(a.lat, 0.45), quantile(a.lat, 0.55)
	for band < len(rows) && (band < 3 || (rows[band].lat >= lo && rows[band].lat <= hi)) {
		band++
	}
	pieces = map[string]float64{}
	rest := p50
	for _, r := range rows[:band] {
		for k, v := range r.pieces {
			pieces[k] += v / float64(band)
			rest -= v / float64(band)
		}
	}
	pieces[unattributed] = rest
	return pieces, band
}

const unattributed = "bench.unattributed"

func printSplit(w io.Writer, pieces map[string]float64, band int, p50 float64) {
	fmt.Fprintf(w, "blocking-path split of latency_p50_ms (mean of the %d jobs nearest p50):\n", band)
	for _, k := range sortedKeys(pieces) {
		if k != unattributed {
			fmt.Fprintf(w, "  %-24s %10.4f ms %6.1f%%\n", k, pieces[k], 100*pieces[k]/p50)
		}
	}
	fmt.Fprintf(w, "  %-24s %10.4f ms %6.1f%%\n", unattributed, pieces[unattributed], 100*pieces[unattributed]/p50)
	fmt.Fprintf(w, "  %-24s %10.4f ms\n", "= latency_p50_ms", p50)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
