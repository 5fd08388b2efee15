package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/mtxio"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/workload"
)

// postFrame POSTs a frame body to /jobs.
func postFrame(t *testing.T, url string, body []byte) (int, jobStatus) {
	t.Helper()
	resp, err := http.Post(url+"/jobs", mtxio.FrameContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// waitDone polls a job's status until it is done.
func waitDone(t *testing.T, url, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st jobStatus
		if code := getJSON(t, url+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status code %d", code)
		}
		if st.Status == "done" {
			return
		}
		if st.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %s ended %q", id, st.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fetchFrameResult GETs a result asking for a frame and decodes it.
func fetchFrameResult(t *testing.T, url, id string) (mtxio.FrameHeader, *matrix.Matrix) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url+"/jobs/"+id+"/result", nil)
	req.Header.Set("Accept", mtxio.FrameContentType+", application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != mtxio.FrameContentType {
		t.Fatalf("result: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	h, m, err := mtxio.ReadFrame(resp.Body, resp.ContentLength)
	if err != nil {
		t.Fatal(err)
	}
	return h, m
}

func requireBits(t *testing.T, got, want *matrix.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("R(%d,%d) = %v, want %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func directR(t *testing.T, a *matrix.Matrix, tile int) *matrix.Matrix {
	t.Helper()
	f, err := runtime.Factor(a, runtime.Options{TileSize: tile})
	if err != nil {
		t.Fatal(err)
	}
	return f.R()
}

// TestHTTPFrameSubmitAndResult: a frame submission decodes into the job's
// matrix with its metadata fields applied, and the result comes back as a
// frame or as JSON by Accept alone, both bit-identical to a direct
// factorization.
func TestHTTPFrameSubmitAndResult(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler(""))
	defer ts.Close()

	a := workload.Uniform(11, 48, 40)
	body := mtxio.AppendFrame(nil, []byte(`{"id":"fr-1","tile":8}`), a.Rows, a.Cols, a.Data)
	code, st := postFrame(t, ts.URL, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if st.ClientID != "fr-1" || st.Class != "48x40/b8/flat-ts" {
		t.Fatalf("frame metadata not applied: %+v", st)
	}
	waitDone(t, ts.URL, "fr-1")
	want := directR(t, a, 8)

	h, got := fetchFrameResult(t, ts.URL, "fr-1")
	requireBits(t, got, want)
	if string(h.Meta) != `{"id":"`+st.ID+`"}` {
		t.Fatalf("result metadata %q", h.Meta)
	}

	// No Accept header: the JSON body, exactly as before frames existed.
	var res struct {
		ID   string      `json:"id"`
		Rows int         `json:"rows"`
		Cols int         `json:"cols"`
		R    [][]float64 `json:"r"`
	}
	if code := getJSON(t, ts.URL+"/jobs/fr-1/result", &res); code != http.StatusOK {
		t.Fatalf("JSON result: %d", code)
	}
	requireBits(t, matrix.FromRows(res.R), want)
}

// TestHTTPFrameResultFromStoreAfterRestart: a job finished before a
// restart is served from its file-store record, as a frame when asked.
func TestHTTPFrameResultFromStoreAfterRestart(t *testing.T) {
	dir := t.TempDir()
	fs1, err := store.NewFile(dir, store.FileOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Store: fs1})
	ts1 := httptest.NewServer(s1.Handler(""))
	a := workload.Uniform(12, 40, 40)
	if code, _ := postFrame(t, ts1.URL, mtxio.AppendFrame(nil, []byte(`{"id":"kept"}`), 40, 40, a.Data)); code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	waitDone(t, ts1.URL, "kept")
	ts1.Close()
	s1.Close()
	fs1.Close()

	fs2, err := store.NewFile(dir, store.FileOptions{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Store: fs2})
	defer func() { s2.Close(); fs2.Close() }()
	ts2 := httptest.NewServer(s2.Handler(""))
	defer ts2.Close()
	if _, live := s2.resolveJob("kept"); live {
		t.Fatal("finished job is live after restart; the store path is not exercised")
	}
	h, got := fetchFrameResult(t, ts2.URL, "kept")
	if string(h.Meta) != `{"id":"kept"}` {
		t.Fatalf("result metadata %q", h.Meta)
	}
	requireBits(t, got, directR(t, a, 16))
}

// TestHTTPRejectsBadFrames: a damaged submission frame is a 400, never a
// panic or an accepted job.
func TestHTTPRejectsBadFrames(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler(""))
	defer ts.Close()

	a := workload.Uniform(13, 16, 16)
	good := mtxio.AppendFrame(nil, []byte(`{"id":"bad"}`), 16, 16, a.Data)
	badCRC := append([]byte(nil), good...)
	badCRC[len(badCRC)-1] ^= 1
	shape := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(shape[8:], 17) // 17x16 declared, 16x16 sent
	badMeta := mtxio.AppendFrame(nil, []byte(`{"id":`), 16, 16, a.Data)
	for name, body := range map[string][]byte{
		"truncated": good[:len(good)-100],
		"badCRC":    badCRC,
		"shape":     shape,
		"badMeta":   badMeta,
		"json":      []byte(`{"rows":16,"cols":16,"seed":1}`),
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
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs accepted from bad frames", n)
	}
}

// TestResultAgreesWithState: the result endpoint answers as soon as a
// status poll can report "done". finish stores the terminal state before it
// closes Done; a Result keyed on Done answered 409 "still done" to a client
// that polled in between.
func TestResultAgreesWithState(t *testing.T) {
	j := &Job{id: 9, done: make(chan struct{})}
	if _, err := j.Result(); err == nil {
		t.Fatal("queued job returned a result")
	}
	want := errors.New("boom")
	j.err = want
	j.state.Store(int32(StateFailed)) // terminal, Done not yet closed
	if _, err := j.Result(); !errors.Is(err, want) {
		t.Fatalf("Result() err = %v, want the job's own error", err)
	}
}
