package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Add(Event{Label: "x"}) // must not panic
	if r.Now() != 0 {
		t.Fatal("nil recorder Now must be 0")
	}
	if got := r.Events(); got != nil {
		t.Fatalf("nil recorder events: %v", got)
	}
}

func TestAddAndSummarize(t *testing.T) {
	r := NewRecorder()
	r.Add(Event{Label: "a", Step: "T", Worker: "w0", Start: 0, End: 10 * time.Millisecond})
	r.Add(Event{Label: "b", Step: "UE", Worker: "w1", Start: 5 * time.Millisecond, End: 25 * time.Millisecond})
	r.Add(Event{Label: "c", Step: "T", Worker: "w0", Start: 12 * time.Millisecond, End: 14 * time.Millisecond})
	s := r.Summarize()
	if s.NumEvents != 3 {
		t.Fatalf("NumEvents = %d", s.NumEvents)
	}
	if s.Makespan != 25*time.Millisecond {
		t.Fatalf("Makespan = %v", s.Makespan)
	}
	if s.ByStep["T"] != 12*time.Millisecond {
		t.Fatalf("ByStep[T] = %v", s.ByStep["T"])
	}
	if s.ByWorker["w1"] != 20*time.Millisecond {
		t.Fatalf("ByWorker[w1] = %v", s.ByWorker["w1"])
	}
}

func TestEventsSortedByStart(t *testing.T) {
	r := NewRecorder()
	r.Add(Event{Label: "late", Start: 10, End: 20})
	r.Add(Event{Label: "early", Start: 1, End: 2})
	ev := r.Events()
	if ev[0].Label != "early" || ev[1].Label != "late" {
		t.Fatalf("events not sorted: %v", ev)
	}
}

func TestEventDuration(t *testing.T) {
	e := Event{Start: 3 * time.Second, End: 5 * time.Second}
	if e.Duration() != 2*time.Second {
		t.Fatalf("Duration = %v", e.Duration())
	}
}

func TestGantt(t *testing.T) {
	r := NewRecorder()
	r.Add(Event{Label: "p", Step: "T", Worker: "dev0", Start: 0, End: 50 * time.Millisecond})
	r.Add(Event{Label: "u", Step: "U", Worker: "dev1", Start: 50 * time.Millisecond, End: 100 * time.Millisecond})
	g := r.Gantt(20)
	if !strings.Contains(g, "dev0") || !strings.Contains(g, "dev1") {
		t.Fatalf("gantt missing workers:\n%s", g)
	}
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 2 {
		t.Fatalf("gantt rows: %d", len(lines))
	}
	if !strings.Contains(lines[0], "T") || !strings.Contains(lines[1], "U") {
		t.Fatalf("gantt marks wrong:\n%s", g)
	}
}

func TestGanttEmpty(t *testing.T) {
	r := NewRecorder()
	if g := r.Gantt(10); g != "" {
		t.Fatalf("empty gantt: %q", g)
	}
	r.Add(Event{Worker: "w"}) // zero makespan
	if g := r.Gantt(10); g != "" {
		t.Fatalf("zero-makespan gantt: %q", g)
	}
	if g := r.Gantt(0); g != "" {
		t.Fatalf("zero buckets: %q", g)
	}
}

func TestConcurrentAdd(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				start := r.Now()
				r.Add(Event{Label: "op", Step: "T", Worker: "w", Start: start, End: start + 1})
			}
		}()
	}
	wg.Wait()
	if got := len(r.Events()); got != 800 {
		t.Fatalf("%d events, want 800", got)
	}
}

func TestZeroValueRecorderUsable(t *testing.T) {
	var r Recorder
	if r.Now() < 0 {
		t.Fatal("Now must be non-negative")
	}
	r.Add(Event{Label: "x", Start: 1, End: 2})
	if len(r.Events()) != 1 {
		t.Fatal("zero-value recorder must record")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := NewRecorder()
	r.Add(Event{Label: "GEQRT(k=0, row=0)", Step: "T", Worker: "worker-0",
		Start: 10 * time.Microsecond, End: 40 * time.Microsecond})
	r.Add(Event{Label: "bcast", Step: "X", Worker: "GTX680",
		Start: 40 * time.Microsecond, End: 90 * time.Microsecond})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", parsed.DisplayTimeUnit)
	}
	if len(parsed.TraceEvents) != 2 {
		t.Fatalf("%d events", len(parsed.TraceEvents))
	}
	ev := parsed.TraceEvents[0]
	if ev["ph"] != "X" || ev["tid"] != "worker-0" {
		t.Fatalf("event 0: %v", ev)
	}
	if ev["dur"].(float64) != 30 {
		t.Fatalf("dur = %v", ev["dur"])
	}
	args, ok := ev["args"].(map[string]any)
	if !ok || args["step"] != "T" {
		t.Fatalf("args = %v", ev["args"])
	}
}

func TestReadChromeTraceRoundTrip(t *testing.T) {
	r := NewRecorder()
	want := []Event{
		{Label: "GEQRT(k=0, row=0)", Step: "T", Worker: "worker-0",
			Start: 10 * time.Microsecond, End: 40 * time.Microsecond},
		{Label: "bcast", Step: "X", Worker: "GTX680",
			Start: 40 * time.Microsecond, End: 90 * time.Microsecond},
	}
	for _, e := range want {
		r.Add(e)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReadChromeTraceOldFormat pins backwards compatibility: the bare
// JSON-array output written before the displayTimeUnit wrapper must keep
// parsing.
func TestReadChromeTraceOldFormat(t *testing.T) {
	old := `[{"name":"panel k=0 (m=4)","cat":"T","ph":"X","ts":5,"dur":20,"pid":1,"tid":"GTX580"}]`
	got, err := ReadChromeTrace(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d events", len(got))
	}
	e := got[0]
	if e.Label != "panel k=0 (m=4)" || e.Step != "T" || e.Worker != "GTX580" {
		t.Fatalf("event: %+v", e)
	}
	if e.Start != 5*time.Microsecond || e.End != 25*time.Microsecond {
		t.Fatalf("times: %+v", e)
	}
}

// TestEventsStableTieOrder pins the deterministic ordering of events that
// share a start time: Worker then Label break the tie regardless of Add
// order.
func TestEventsStableTieOrder(t *testing.T) {
	add := func(r *Recorder, labels ...string) {
		for _, l := range labels {
			worker := "w1"
			if strings.HasPrefix(l, "a") {
				worker = "w0"
			}
			r.Add(Event{Label: l, Worker: worker, Start: 10, End: 20})
		}
	}
	r1, r2 := NewRecorder(), NewRecorder()
	add(r1, "a2", "b1", "a1")
	add(r2, "a1", "a2", "b1") // different insertion order, same events
	ev1, ev2 := r1.Events(), r2.Events()
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("order differs at %d: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
	if ev1[0].Label != "a1" || ev1[1].Label != "a2" || ev1[2].Label != "b1" {
		t.Fatalf("tie order wrong: %+v", ev1)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	r.Add(Event{Label: "TSMQR(k=1, top=1, row=3, col=2)", Step: "UE", Worker: "worker-1",
		Start: 100 * time.Microsecond, End: 350 * time.Microsecond})
	r.Add(Event{Label: "GEQRT(k=0, row=0)", Step: "T", Worker: "worker-0",
		Start: 0, End: 30 * time.Microsecond})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output is not valid CSV (labels contain commas and must be quoted): %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	wantHeader := []string{"label", "step", "worker", "start_us", "dur_us"}
	for i, h := range wantHeader {
		if rows[0][i] != h {
			t.Fatalf("header = %v", rows[0])
		}
	}
	// Events are sorted by start: GEQRT first.
	if rows[1][0] != "GEQRT(k=0, row=0)" || rows[1][3] != "0" || rows[1][4] != "30" {
		t.Fatalf("row 1 = %v", rows[1])
	}
	if rows[2][1] != "UE" || rows[2][3] != "100" || rows[2][4] != "250" {
		t.Fatalf("row 2 = %v", rows[2])
	}
}

// Every export path must be safe to run while workers are still recording:
// exports snapshot the event slice under the lock (Events), so a live
// qrmon/qrserve endpoint can render a trace mid-run. Run with -race.
func TestExportWhileRecording(t *testing.T) {
	// Each writer records a fixed number of events, half before and half
	// after the exports begin, so the exports overlap live writes while
	// the recorder stays small.
	const perWriter = 256
	r := NewRecorder()
	exporting := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if i == perWriter/2 {
					<-exporting
				}
				start := r.Now()
				r.Add(Event{
					Label: "GEQRT[0]", Step: "T",
					Worker: "w" + string(rune('0'+w)),
					Start:  start, End: start + time.Microsecond,
				})
			}
		}(w)
	}
	close(exporting)
	for i := 0; i < 200; i++ {
		if r.Events() == nil {
			t.Fatal("nil events from live recorder")
		}
		_ = r.Summarize()
		_ = r.Gantt(40)
		var buf bytes.Buffer
		if err := r.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if err := r.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	// The snapshot invariant: exports sorted a copy, never the live slice,
	// so a final Events call still sees a consistent, sorted view.
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Fatalf("events unsorted at %d", i)
		}
	}
}
