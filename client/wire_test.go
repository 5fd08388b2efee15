package client_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/mtxio"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestClientSubmitsInlineDataAsFrame: inline Data goes out as a binary
// frame and the result comes back as one; a seed-only spec stays JSON.
func TestClientSubmitsInlineDataAsFrame(t *testing.T) {
	s := serve.New(serve.Config{})
	h := s.Handler("")
	var mu sync.Mutex
	seen := map[string]string{} // request path → Content-Type sent or received
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			seen["POST "+r.Header.Get("Content-Type")] = r.URL.Path
			mu.Unlock()
		}
		if r.Header.Get("Accept") != "" {
			mu.Lock()
			seen["Accept "+r.Header.Get("Accept")] = r.URL.Path
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ts.Close(); s.Close() })
	c, err := client.New(client.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	a := workload.Uniform(31, 40, 24)
	res, err := c.Factor(testCtx(t), client.JobSpec{Rows: 40, Cols: 24, Data: a.Data})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Factor(testCtx(t), client.JobSpec{Rows: 40, Cols: 24, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := seen["POST "+mtxio.FrameContentType]; !ok {
		t.Fatalf("no frame submission seen: %v", seen)
	}
	if _, ok := seen["POST application/json"]; !ok {
		t.Fatalf("seed-only spec was not sent as JSON: %v", seen)
	}
	if _, ok := seen["Accept "+mtxio.FrameContentType+", application/json"]; !ok {
		t.Fatalf("result request did not negotiate frames: %v", seen)
	}
	// The rows slice one backing array and do not overlap.
	if len(res.R) != 40 || cap(res.R[0]) != 24 {
		t.Fatalf("R is %d rows, row cap %d", len(res.R), cap(res.R[0]))
	}
}

// TestClientRejectsCorruptResultFrame: a result frame that fails its
// checksum, shape or length test is an error, never a wrong R.
func TestClientRejectsCorruptResultFrame(t *testing.T) {
	good := mtxio.AppendFrame(nil, []byte(`{"id":"j"}`), 8, 8, workload.Uniform(32, 8, 8).Data)
	flip := func(off int, bit byte) []byte {
		b := append([]byte(nil), good...)
		b[off] ^= bit
		return b
	}
	cases := map[string]struct {
		body    []byte
		declare int // Content-Length sent; the body may be shorter
	}{
		"bitFlip":   {flip(60, 0x08), len(good)},
		"badCRC":    {flip(len(good)-2, 0x01), len(good)},
		"shape":     {flip(8, 0x01), len(good)}, // 9x8 declared, 8x8 sent
		"truncated": {good[:len(good)-40], len(good)},
		"noHeader":  {[]byte("not a frame at all"), 18},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", mtxio.FrameContentType)
				w.Header().Set("Content-Length", strconv.Itoa(tc.declare))
				_, _ = w.Write(tc.body)
			}))
			defer ts.Close()
			c, err := client.New(client.Config{BaseURL: ts.URL, Retry: client.RetryPolicy{MaxAttempts: 1}})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Result(testCtx(t), "j")
			if err == nil || res != nil {
				t.Fatalf("corrupt frame accepted: res %v, err %v", res, err)
			}
			if name != "truncated" && !errors.Is(err, mtxio.ErrFrame) {
				t.Fatalf("err = %v, want ErrFrame", err)
			}
		})
	}
}

// TestClientDecodesJSONResult: a server that ignores the Accept header and
// answers JSON still yields the same Result.
func TestClientDecodesJSONResult(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":"j","rows":2,"cols":2,"r":[[1,2],[0,3]]}`))
	}))
	defer ts.Close()
	c, err := client.New(client.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(testCtx(t), "j")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "j" || res.Rows != 2 || res.Cols != 2 || res.R[0][1] != 2 || res.R[1][1] != 3 {
		t.Fatalf("result %+v", res)
	}
}
