package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Chrome-trace process lanes.
const (
	pidClient = 1 + iota
	pidRouter
	pidWorker0 // worker i is pidWorker0+i
	pidLibrary = pidWorker0 + numWorkers
)

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace collects the traced run's spans in memory and writes them as
// a Chrome trace (chrome://tracing, Perfetto) when the run ends. A span's
// start and end are its ts and ts+dur; its args carry its job's trace id,
// its own id and its parent's.
type chromeTrace struct {
	origin time.Time
	events []chromeEvent
	next   int
}

func newChromeTrace(origin time.Time) *chromeTrace {
	ct := &chromeTrace{origin: origin}
	names := map[int]string{pidClient: "client + benchmark", pidRouter: "router", pidLibrary: "library"}
	for i := 0; i < numWorkers; i++ {
		names[pidWorker0+i] = fmt.Sprintf("worker-%d", i)
	}
	for pid, name := range names {
		ct.events = append(ct.events, chromeEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
	}
	return ct
}

// span records one span and returns its id (ids start at 1; 0 is "no
// parent").
func (ct *chromeTrace) span(traceID, name, layer string, pid, tid int, start, end time.Time, parent int) int {
	ct.next++
	ct.events = append(ct.events, chromeEvent{
		Name: name, Cat: layer, Ph: "X", PID: pid, TID: tid,
		TS:   float64(start.Sub(ct.origin)) / float64(time.Microsecond),
		Dur:  float64(end.Sub(start)) / float64(time.Microsecond),
		Args: map[string]any{"trace_id": traceID, "span": ct.next, "parent": parent},
	})
	return ct.next
}

func (ct *chromeTrace) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": ct.events})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
