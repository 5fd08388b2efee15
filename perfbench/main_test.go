package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// smallSpec is a quick service workload for the tests.
var smallSpec = spec{name: "svc-test", service: true, inline: true, clients: 2, shapes: [][3]int{{32, 32, 2}, {48, 32, 2}}}

func newTestBench(t *testing.T, sp spec, traced bool) *bench {
	t.Helper()
	var out bytes.Buffer
	b := &bench{sp: sp, seed: 3, seconds: 1, traced: traced, dir: t.TempDir(), out: &out}
	var err error
	if b.pool, err = buildInputs(sp, b.seed); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckRowsDetectsOneULP(t *testing.T) {
	b := newTestBench(t, smallSpec, false)
	ref := b.pool[0].ref
	rows := make([][]float64, ref.Rows)
	for i := range rows {
		rows[i] = append([]float64(nil), ref.Row(i)...)
	}
	if err := checkRows(rows, ref); err != nil {
		t.Fatalf("identical R rejected: %v", err)
	}
	rows[1][3] = math.Nextafter(rows[1][3], math.Inf(1))
	if err := checkRows(rows, ref); err == nil {
		t.Fatal("R one ulp off was accepted")
	}
	if err := checkRows(rows[:3], ref); err == nil {
		t.Fatal("R with missing rows was accepted")
	}
}

// TestCorruptedResultCounted runs the service loop against references that
// no longer match what the service delivers: every job must count as
// failed, and the run must not read as correct.
func TestCorruptedResultCounted(t *testing.T) {
	b := newTestBench(t, smallSpec, false)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	defer b.teardown()
	for _, in := range b.pool {
		in.ref = in.ref.Clone()
		in.ref.Set(0, 0, in.ref.At(0, 0)*(1+1e-15))
	}
	ls := b.loop(300 * time.Millisecond)
	if ls.attempted == 0 || ls.failed != ls.attempted || len(ls.lat) != 0 {
		t.Fatalf("attempted %d, failed %d, verified %d: want every job failed", ls.attempted, ls.failed, len(ls.lat))
	}
	if !strings.Contains(strings.Join(ls.errs, "\n"), "reference") {
		t.Fatalf("failures do not name the mismatch: %v", ls.errs)
	}
}

func TestServiceLoopVerifiesEveryJob(t *testing.T) {
	b := newTestBench(t, smallSpec, false)
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	defer b.teardown()
	ls := b.loop(300 * time.Millisecond)
	if ls.attempted == 0 || ls.failed != 0 || len(ls.lat) != ls.attempted {
		t.Fatalf("attempted %d, failed %d (%v), verified %d", ls.attempted, ls.failed, ls.errs, len(ls.lat))
	}
}

// TestWorkerPlacementIsStable deploys svc-small twice and compares which
// worker each of its four size classes landed on during warm-up.
func TestWorkerPlacementIsStable(t *testing.T) {
	placement := func() map[string]int {
		b := newTestBench(t, specs[0], false)
		if err := b.setup(); err != nil {
			t.Fatal(err)
		}
		defer b.teardown()
		out := map[string]int{}
		for wi, w := range b.st.workers {
			recs, err := w.fs.List()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				class := fmt.Sprintf("%dx%d", r.Rows, r.Cols)
				if prev, ok := out[class]; ok && prev != wi {
					t.Fatalf("class %s ran on workers %d and %d in one deployment", class, prev, wi)
				}
				out[class] = wi
			}
		}
		return out
	}
	first, second := placement(), placement()
	if len(first) != len(specs[0].shapes) {
		t.Fatalf("warm-up placed %d classes, want %d: %v", len(first), len(specs[0].shapes), first)
	}
	if !maps.Equal(first, second) {
		t.Fatalf("class placement differs between deployments: %v vs %v", first, second)
	}
}

// TestTracedRunReportsEveryLayer checks that a traced run reports every
// per-layer metric and that its layer table leaves less unattributed than
// its largest layer.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	for _, sp := range []spec{smallSpec, {name: "lib-test", clients: 1, shapes: [][3]int{{128, 128, 1}}}} {
		b := newTestBench(t, sp, true)
		res, err := b.run()
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: traced run not correct: %+v", sp.name, res)
		}
		for _, d := range perLayer {
			v, ok := res.Metrics[d.name]
			if !ok || v.Unit != d.unit || math.IsNaN(v.Value) {
				t.Errorf("%s: metric %s = %+v", sp.name, d.name, v)
			}
		}
		out := b.out.(*bytes.Buffer).String()
		if !strings.Contains(out, "= latency_p50_ms") {
			t.Fatalf("%s: no layer table in\n%s", sp.name, out)
		}
		var largest float64
		for k, v := range b.split {
			if k != unattributed {
				largest = max(largest, v)
			}
		}
		if un := res.Metrics["bench.unattributed_ms"].Value; un != b.split[unattributed] || abs(un) >= largest {
			t.Fatalf("%s: unattributed %v ms, largest layer %v ms", sp.name, un, largest)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	if q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6}); q1 != 1.25 || q3 != 5.75 {
		t.Fatalf("quartiles of eight = %v, %v; want 1.25, 5.75", q1, q3)
	}
}

func TestDecide(t *testing.T) {
	t0 := time.Unix(0, 0)
	runs := func(vals []float64, headFirstOdd bool, offset time.Duration) []side {
		var out []side
		for i, v := range vals {
			start := t0.Add(time.Duration(2*i) * time.Minute)
			if (i%2 == 1) == headFirstOdd {
				start = start.Add(offset)
			}
			out = append(out, side{seed: int64(i + 1), start: start, v: v})
		}
		return out
	}
	ten := func(base float64, step float64) []float64 {
		var out []float64
		for i := 0; i < 10; i++ {
			out = append(out, base+step*float64(i%5))
		}
		return out
	}
	bound := 0.1
	base := runs(ten(100, 1), true, time.Minute)
	cases := []struct {
		name string
		head []float64
		want string
	}{
		{"faster everywhere", ten(80, 1), improved},
		{"within the bound", ten(104, 1), unchanged},
		{"slower beyond the bound", ten(120, 1), regressed},
	}
	for _, c := range cases {
		head := runs(c.head, false, time.Minute)
		if got := decide(base, head, false, &bound).decision; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	noisy := runs([]float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, true, time.Minute)
	if got := decide(noisy, runs(ten(101, 1), false, time.Minute), false, &bound).decision; got != unresolved {
		t.Errorf("spread wider than the bound: %s, want %s", got, unresolved)
	}
	// Nine pairs are too few to claim a gain.
	if got := decide(base[:9], runs(ten(80, 1), false, time.Minute)[:9], false, &bound).decision; got == improved {
		t.Errorf("nine pairs claimed a gain")
	}
}

// TestCompareRunsGatesOnFailures checks that failed jobs override the A/B
// rule and that runs of another length than run_seconds are refused.
func TestCompareRunsGatesOnFailures(t *testing.T) {
	bound := 0.1
	sp := benchSpec{RunSeconds: 30, EndToEnd: []specMetric{{Name: "latency_p50_ms", Better: "lower", Bound: &bound}}}
	t0 := time.Unix(0, 0)
	runs := func(lat float64, headFirstOdd bool) []record {
		var out []record
		for i := 0; i < 10; i++ {
			start := t0.Add(time.Duration(2*i) * time.Minute)
			if (i%2 == 1) == headFirstOdd {
				start = start.Add(time.Minute)
			}
			out = append(out, record{
				Workload: "svc-small", Seed: int64(i + 1), Seconds: 30, Start: start.Format(time.RFC3339Nano),
				Correct: true, Attempted: 100, Metrics: map[string]value{"latency_p50_ms": {Value: lat + float64(i%5)}},
			})
		}
		return out
	}
	decision := func(base, head []record) string {
		t.Helper()
		vs, err := compareRuns(sp, base, head)
		if err != nil || len(vs) != 1 {
			t.Fatalf("compareRuns: %v, %d verdicts", err, len(vs))
		}
		return vs[0].decision
	}
	base := runs(100, true)
	if got := decision(base, runs(80, false)); got != improved {
		t.Fatalf("clean faster change: %s, want %s", got, improved)
	}
	// Fast failures leave only the quick jobs in the latency samples.
	head := runs(80, false)
	head[3].Failed, head[3].Correct = 40, false
	if got := decision(base, head); got != regressed {
		t.Errorf("change failing jobs the parent did not: %s, want %s", got, regressed)
	}
	head = runs(80, false)
	head[5].Correct = false
	if got := decision(base, head); got != regressed {
		t.Errorf("incorrect change run: %s, want %s", got, regressed)
	}
	failing := runs(100, true)
	failing[0].Failed, failing[0].Correct = 2, false
	head = runs(80, false)
	head[0].Failed, head[0].Correct = 2, false
	if got := decision(failing, head); got == improved {
		t.Errorf("change with failed jobs claimed a gain")
	}
	head = runs(80, false)
	head[2].Seconds = 10
	if _, err := compareRuns(sp, base, head); err == nil {
		t.Errorf("run of 10 s compared against run_seconds 30")
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []specMetric `json:"end_to_end"`
		PerLayer  []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, program %q %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	same := func(kind string, js []specMetric, defs []metricDef) {
		if len(js) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(js), len(defs))
		}
		for i, m := range js {
			d := defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
