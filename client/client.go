// Package client is the typed Go SDK for the QR job service: it speaks the
// HTTP API of both qrserve workers and the qrrouter front end (the two are
// wire-compatible), with the retry discipline a production caller needs
// baked in — capped-exponential jittered backoff that honours Retry-After,
// context-aware cancellation everywhere, idempotency keys on every
// submission (auto-minted when the caller does not supply one, so retried
// submits can never double-accept), and X-Trace-Id propagation so a
// client-side id follows the job through every server hop and into /traces.
//
// The client also speaks to highly-available router pairs: Config.Endpoints
// lists every router, and the client sticks to whichever one answers,
// rotating on transport failure or on an explicit standby refusal (503 +
// "X-Router-Role: standby"). A standby hop is free — it does not burn the
// retry budget — so a failover is one extra round trip, not a backoff.
//
// The verbs:
//
//	c, _ := client.New(client.Config{BaseURL: "http://localhost:8080"})
//	job, err := c.Submit(ctx, client.JobSpec{Rows: 512, Cols: 512, Seed: 1})
//	res, err := job.Wait(ctx)                  // poll to terminal, fetch R
//	res, err := c.Factor(ctx, spec)            // Submit + Wait in one call
//	out := c.Stream(ctx, specs, 8)             // bounded-concurrency pipeline
//
// Wire format: the client asks for results as binary matrix frames
// (Accept: application/x-qr-matrix, application/json) and decodes a frame
// into one rows·cols allocation that Result.R's rows slice; a JSON answer
// from a server that does not speak frames decodes as before. A submission
// with inline Data travels as a frame too (Content-Type
// application/x-qr-matrix), with its other fields in the frame's metadata
// section; a seed-only submission stays a small JSON object. A frame that
// fails its shape, length or checksum test is an error, never a wrong R.
//
// Error taxonomy: sentinel errors (ErrDuplicate, ErrOverloaded, ErrNotFound,
// ErrNotDone) match with errors.Is through the typed *APIError, and a job
// that reached a terminal failure surfaces as *JobError with the server's
// Retryable verdict (HTTP 503 + Retry-After on the result endpoint means
// "resubmit", not "the input was bad").
package client

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mtxio"
)

// Sentinel errors, matched with errors.Is against everything the client
// returns.
var (
	// ErrDuplicate: the submission's idempotency key is already taken (HTTP
	// 409). Submit additionally returns a handle to the existing job.
	ErrDuplicate = errors.New("client: duplicate job id")
	// ErrOverloaded: admission kept refusing with 429 past the retry budget.
	ErrOverloaded = errors.New("client: server overloaded")
	// ErrNotFound: the job id is unknown to the server (HTTP 404).
	ErrNotFound = errors.New("client: job not found")
	// ErrNotDone: the result was requested before the job finished.
	ErrNotDone = errors.New("client: job not finished")
)

// APIError is a non-2xx server response.
type APIError struct {
	// Code is the HTTP status.
	Code int
	// Message is the server's error body.
	Message string
	// RetryAfter is the parsed Retry-After hint (0 when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Code, e.Message)
}

// Is maps status codes onto the sentinel errors.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrDuplicate:
		return e.Code == http.StatusConflict
	case ErrOverloaded:
		return e.Code == http.StatusTooManyRequests
	case ErrNotFound:
		return e.Code == http.StatusNotFound
	}
	return false
}

// JobError is a job that reached a terminal failure on the server.
type JobError struct {
	ID      string
	Message string
	// Retryable: the server judged the failure transient (exhausted retry
	// budget, lost device) — resubmitting the same input should succeed.
	Retryable bool
	// RetryAfter is the server's resubmission hint when Retryable.
	RetryAfter time.Duration
}

func (e *JobError) Error() string {
	if e.Retryable {
		return fmt.Sprintf("client: job %s failed (retryable, resubmit after %v): %s", e.ID, e.RetryAfter, e.Message)
	}
	return fmt.Sprintf("client: job %s failed: %s", e.ID, e.Message)
}

// RetryPolicy is capped exponential backoff with full jitter. A server's
// Retry-After always overrides the computed delay.
type RetryPolicy struct {
	// MaxAttempts bounds tries per request (first try included). Default 4.
	MaxAttempts int
	// BaseDelay seeds the exponential schedule (default 50ms); MaxDelay
	// caps it (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p RetryPolicy) normalize() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// delay computes the wait before attempt (0-based) number attempt+1.
func (p RetryPolicy) delay(attempt int, hint time.Duration, rng *rand.Rand) time.Duration {
	if hint > 0 {
		if hint > p.MaxDelay {
			return p.MaxDelay
		}
		return hint
	}
	d := p.BaseDelay << uint(attempt)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	// Full jitter: uniform in (0, d] — decorrelates a retrying fleet.
	return time.Duration(rng.Int63n(int64(d))) + 1
}

// roleHeader is the router's HA-role response header: a standby refuses
// job traffic with 503 and this header set to "standby", which tells the
// client to rotate endpoints instead of backing off.
const roleHeader = "X-Router-Role"

// Config configures a Client.
type Config struct {
	// BaseURL roots the API, e.g. "http://localhost:8080" — a qrserve
	// worker or a qrrouter front end.
	BaseURL string
	// Endpoints lists additional base URLs (an HA router pair, or several
	// workers). The client is sticky: it keeps using the endpoint that
	// answers, and rotates to the next on a transport failure or a standby
	// refusal. BaseURL, when set, is simply the first endpoint.
	Endpoints []string
	// HTTPClient overrides the transport (default: http.Client with a 30s
	// overall timeout; per-call contexts cut it shorter).
	HTTPClient *http.Client
	// Retry tunes the backoff schedule for 429/503/transport errors.
	Retry RetryPolicy
	// PollInterval is Wait's initial status-poll spacing (default 5ms; it
	// backs off to 50× that as the job keeps running).
	PollInterval time.Duration
}

// Client is a QR job service client. Safe for concurrent use.
type Client struct {
	endpoints []string
	// active indexes the endpoint in use. Rotation is a CAS, so concurrent
	// callers observing the same failure advance it exactly once.
	active atomic.Int32
	hc     *http.Client
	retry  RetryPolicy
	poll   time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// New validates cfg and returns a client.
func New(cfg Config) (*Client, error) {
	raw := make([]string, 0, 1+len(cfg.Endpoints))
	if cfg.BaseURL != "" {
		raw = append(raw, cfg.BaseURL)
	}
	raw = append(raw, cfg.Endpoints...)
	if len(raw) == 0 {
		return nil, errors.New("client: BaseURL or Endpoints required")
	}
	endpoints := make([]string, 0, len(raw))
	for _, u := range raw {
		base := strings.TrimRight(u, "/")
		if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
			return nil, fmt.Errorf("client: endpoint %q must be http(s)", u)
		}
		endpoints = append(endpoints, base)
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	poll := cfg.PollInterval
	if poll <= 0 {
		poll = 5 * time.Millisecond
	}
	return &Client{
		endpoints: endpoints,
		hc:        hc,
		retry:     cfg.Retry.normalize(),
		poll:      poll,
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
	}, nil
}

// endpoint returns the base URL currently in use.
func (c *Client) endpoint() string {
	return c.endpoints[int(c.active.Load())%len(c.endpoints)]
}

// rotateFrom advances to the next endpoint — but only if base is still the
// active one, so a fleet of goroutines that all saw the same dead endpoint
// rotates once, not once each (which would orbit past the healthy one).
func (c *Client) rotateFrom(base string) {
	if len(c.endpoints) < 2 {
		return
	}
	cur := c.active.Load()
	if c.endpoints[int(cur)%len(c.endpoints)] == base {
		c.active.CompareAndSwap(cur, (cur+1)%int32(len(c.endpoints)))
	}
}

// JobSpec describes one factorization submission.
type JobSpec struct {
	// ID is an optional idempotency key: resubmitting the same key can
	// never double-accept the job (the server answers 409, which Submit
	// folds into ErrDuplicate + a handle to the existing job). When empty,
	// Submit mints a random key of its own ("cl-<hex>") before the first
	// attempt, so its transparent retries after an ambiguous transport
	// failure cannot double-accept the job either; the minted key comes
	// back as Job.ID.
	ID string
	// Rows×Cols is the matrix shape; Tile and Tree default server-side.
	Rows, Cols int
	Tile       int
	Tree       string
	// Data is the row-major payload; when nil the server generates the
	// reproducible workload.Uniform(Seed) matrix instead.
	Data []float64
	Seed int64
	// Timeout imposes a per-job deadline measured from admission.
	Timeout time.Duration
	// TraceID proposes the X-Trace-Id (server mints one when empty or
	// invalid; the effective id comes back on the Job handle).
	TraceID string
}

// Status is a job's server-side view.
type Status struct {
	ID        string  `json:"id"`
	ClientID  string  `json:"clientID"`
	Status    string  `json:"status"`
	Class     string  `json:"class"`
	TraceID   string  `json:"traceID"`
	Error     string  `json:"error"`
	ElapsedMS float64 `json:"elapsedMS"`
	Recovered bool    `json:"recovered"`
}

// Terminal reports whether the job has finished either way.
func (s Status) Terminal() bool { return s.Status == "done" || s.Status == "failed" }

// Result is a completed factorization's R factor.
type Result struct {
	ID   string      `json:"id"`
	Rows int         `json:"rows"`
	Cols int         `json:"cols"`
	R    [][]float64 `json:"r"`
}

// Job is a submitted job's handle.
type Job struct {
	c *Client
	// ID is the id the server knows the job by (the idempotency key when
	// one was supplied, the server-assigned id otherwise).
	ID string
	// TraceID is the effective X-Trace-Id (follow it at /traces/{id}).
	TraceID string
	// Class is the server's size-class key for the job.
	Class string
}

// Wait blocks until the job finishes, then returns its R factor.
func (j *Job) Wait(ctx context.Context) (*Result, error) { return j.c.Wait(ctx, j.ID) }

// Status fetches the job's current state.
func (j *Job) Status(ctx context.Context) (Status, error) { return j.c.Status(ctx, j.ID) }

// Submit sends one factorization request, retrying transparently through
// overload (429 + Retry-After) and transport failures. Every submission
// carries an idempotency key — spec.ID, or a freshly minted one when the
// caller left it empty — so a retry after a lost response can never
// double-accept the job. On ErrDuplicate (a caller-supplied id already
// taken) the returned handle refers to the existing job with that id, so an
// idempotent resubmission can switch straight to Wait; a 409 against a
// minted key just means an earlier attempt of this same call was accepted,
// and is folded into success.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	id, minted := spec.ID, false
	if id == "" {
		id, minted = mintKey(), true
	}
	payload, contentType, err := encodeSubmission(spec, id)
	if err != nil {
		return nil, fmt.Errorf("client: encode submission: %w", err)
	}
	hdr := http.Header{"Content-Type": {contentType}}
	if spec.TraceID != "" {
		hdr.Set("X-Trace-Id", spec.TraceID)
	}
	var st Status
	resp, err := c.do(ctx, http.MethodPost, "/jobs", payload, hdr, &st)
	if err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Code == http.StatusConflict {
			// The id is taken — hand back the existing job so the caller
			// can poll it. The 409 body carries its status when resolvable.
			j := &Job{c: c, ID: id, TraceID: st.TraceID, Class: st.Class}
			if minted {
				// Nobody else knows a minted key: the conflict is this
				// call's own earlier attempt, accepted before the response
				// was lost. That is the idempotent-retry path working.
				return j, nil
			}
			return j, fmt.Errorf("%w: %q", ErrDuplicate, id)
		}
		return nil, err
	}
	if st.ClientID != "" {
		id = st.ClientID
	}
	return &Job{c: c, ID: id, TraceID: resp.Header.Get("X-Trace-Id"), Class: st.Class}, nil
}

// encodeSubmission renders spec as a POST /jobs body and returns it with
// its Content-Type. Inline data whose length matches the shape travels as
// a binary frame; anything else is JSON, so the server keeps answering
// malformed specs with its usual 400.
func encodeSubmission(spec JobSpec, id string) ([]byte, string, error) {
	timeoutMS := int(spec.Timeout / time.Millisecond)
	if len(spec.Data) > 0 && spec.Rows > 0 && spec.Cols > 0 &&
		len(spec.Data) == spec.Rows*spec.Cols && len(spec.Data) <= mtxio.MaxFrameElems {
		meta, err := json.Marshal(struct {
			ID        string `json:"id"`
			Tile      int    `json:"tile,omitempty"`
			Tree      string `json:"tree,omitempty"`
			TimeoutMS int    `json:"timeoutMS,omitempty"`
		}{id, max(spec.Tile, 0), spec.Tree, max(timeoutMS, 0)})
		if err != nil {
			return nil, "", err
		}
		return mtxio.AppendFrame(nil, meta, spec.Rows, spec.Cols, spec.Data), mtxio.FrameContentType, nil
	}
	body := map[string]any{"rows": spec.Rows, "cols": spec.Cols, "id": id}
	if spec.Tile > 0 {
		body["tile"] = spec.Tile
	}
	if spec.Tree != "" {
		body["tree"] = spec.Tree
	}
	if spec.Data != nil {
		body["data"] = spec.Data
	} else {
		body["seed"] = spec.Seed
	}
	if spec.Timeout > 0 {
		body["timeoutMS"] = timeoutMS
	}
	payload, err := json.Marshal(body)
	return payload, "application/json", err
}

// mintKey generates a client-side idempotency key for an id-less JobSpec:
// minted once per Submit call, before the first attempt, so every retry of
// that call presents the same key.
func mintKey() string {
	var b [9]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return "cl-" + strconv.FormatInt(time.Now().UnixNano(), 36)
	}
	return "cl-" + hex.EncodeToString(b[:])
}

// Status fetches a job's state by id.
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	var st Status
	_, err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, nil, &st)
	return st, err
}

// resultAccept is the Accept header of result requests: a binary frame
// when the server speaks it, JSON otherwise.
const resultAccept = mtxio.FrameContentType + ", application/json"

// Result fetches a completed job's R factor. ErrNotDone while the job is
// still queued or running; *JobError when it failed.
func (c *Client) Result(ctx context.Context, id string) (*Result, error) {
	var res Result
	_, err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/result", nil, http.Header{"Accept": {resultAccept}}, &res)
	if err != nil {
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			switch apiErr.Code {
			case http.StatusConflict:
				return nil, fmt.Errorf("%w: %s", ErrNotDone, id)
			case http.StatusUnprocessableEntity:
				return nil, &JobError{ID: id, Message: apiErr.Message}
			case http.StatusServiceUnavailable:
				return nil, &JobError{ID: id, Message: apiErr.Message, Retryable: true, RetryAfter: apiErr.RetryAfter}
			}
		}
		return nil, err
	}
	return &res, nil
}

// Wait polls a job to a terminal state (context-bounded), then returns its
// result. The poll spacing starts at Config.PollInterval and backs off.
func (c *Client) Wait(ctx context.Context, id string) (*Result, error) {
	interval := c.poll
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.Terminal() {
			if st.Status == "failed" && st.Error != "" {
				// The result endpoint distinguishes retryable failures;
				// fetch it for the typed error.
				_, rerr := c.Result(ctx, id)
				var je *JobError
				if errors.As(rerr, &je) {
					return nil, je
				}
				return nil, &JobError{ID: id, Message: st.Error}
			}
			return c.Result(ctx, id)
		}
		if err := c.sleep(ctx, interval); err != nil {
			return nil, err
		}
		if interval < 50*c.poll {
			interval += interval / 2
		}
	}
}

// Factor is Submit + Wait: one call from matrix spec to R factor.
func (c *Client) Factor(ctx context.Context, spec JobSpec) (*Result, error) {
	j, err := c.Submit(ctx, spec)
	if err != nil && !errors.Is(err, ErrDuplicate) {
		return nil, err
	}
	return j.Wait(ctx)
}

// Outcome is one Stream element: the spec with its job's final disposition.
type Outcome struct {
	Spec   JobSpec
	Job    *Job
	Result *Result
	Err    error
}

// Stream pushes a stream of specs through the service with bounded
// concurrency, delivering one Outcome per spec (order not guaranteed). The
// returned channel closes when specs is closed and every in-flight job has
// finished, or when ctx fires.
func (c *Client) Stream(ctx context.Context, specs <-chan JobSpec, concurrency int) <-chan Outcome {
	if concurrency <= 0 {
		concurrency = 4
	}
	out := make(chan Outcome)
	var wg sync.WaitGroup
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var spec JobSpec
				var ok bool
				select {
				case <-ctx.Done():
					return
				case spec, ok = <-specs:
					if !ok {
						return
					}
				}
				o := Outcome{Spec: spec}
				o.Job, o.Err = c.Submit(ctx, spec)
				if o.Err == nil || errors.Is(o.Err, ErrDuplicate) {
					o.Result, o.Err = o.Job.Wait(ctx)
				}
				select {
				case out <- o:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(out) }()
	return out
}

// sleep blocks for d or until ctx fires, whichever comes first — the
// context-aware form of every backoff and poll wait in this package. A
// stopped timer (rather than time.After) keeps a cancelled wait from
// leaking its timer until it would have fired.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do performs one API call with the retry policy: 429 and 503 responses
// (honouring Retry-After) and transport errors are retried with jittered
// backoff; other failures return immediately as *APIError. On success the
// body is decoded into v when v is non-nil.
//
// With multiple endpoints configured, a transport failure rotates to the
// next endpoint before the backed-off retry, and a standby refusal (503 +
// X-Router-Role: standby) rotates and retries immediately — the standby
// told us exactly where not to send traffic, so the hop is free rather
// than charged against the attempt budget. At most len(endpoints)-1 free
// hops per attempt: a full circle of standbys (mid-promotion) degrades to
// the normal 503 backoff, which lands after the promotion.
func (c *Client) do(ctx context.Context, method, path string, body []byte, hdr http.Header, v any) (*http.Response, error) {
	var lastErr error
	freeHops := 0
	for attempt := 0; attempt < c.retry.MaxAttempts; {
		base := c.endpoint()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
		if err != nil {
			return nil, fmt.Errorf("client: build request: %w", err)
		}
		for k, vs := range hdr {
			for _, h := range vs {
				req.Header.Add(k, h)
			}
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			c.rotateFrom(base)
			lastErr = fmt.Errorf("client: %s %s: %w", method, path, err)
			if err := c.backoff(ctx, &attempt, lastErr); err != nil {
				return nil, err
			}
			continue // transport error: retry (on the next endpoint, if any)
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			if v != nil {
				err := decodeBody(resp, v)
				resp.Body.Close()
				if err != nil {
					return nil, fmt.Errorf("client: decode %s %s: %w", method, path, err)
				}
			} else {
				resp.Body.Close()
			}
			return resp, nil
		}
		standby := resp.Header.Get(roleHeader) == "standby"
		apiErr := readAPIError(resp, v)
		lastErr = apiErr
		if standby && freeHops < len(c.endpoints)-1 {
			c.rotateFrom(base)
			freeHops++
			continue
		}
		if apiErr.Code == http.StatusTooManyRequests || apiErr.Code == http.StatusServiceUnavailable {
			freeHops = 0
			if err := c.backoff(ctx, &attempt, lastErr); err != nil {
				return nil, err
			}
			continue // backpressure: honour Retry-After and try again
		}
		return nil, apiErr
	}
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.Code == http.StatusTooManyRequests {
		return nil, fmt.Errorf("%w after %d attempts: %v", ErrOverloaded, c.retry.MaxAttempts, lastErr)
	}
	return nil, fmt.Errorf("client: giving up after %d attempts: %w", c.retry.MaxAttempts, lastErr)
}

// decodeBody decodes a 2xx response into v: a binary matrix frame into a
// *Result, JSON into anything.
func decodeBody(resp *http.Response, v any) error {
	res, ok := v.(*Result)
	if !ok || !mtxio.IsFrameContentType(resp.Header.Get("Content-Type")) {
		return json.NewDecoder(resp.Body).Decode(v)
	}
	h, m, err := mtxio.ReadFrame(resp.Body, resp.ContentLength)
	if err != nil {
		return err
	}
	var meta struct {
		ID string `json:"id"`
	}
	if len(h.Meta) > 0 {
		if err := json.Unmarshal(h.Meta, &meta); err != nil {
			return fmt.Errorf("frame metadata: %w", err)
		}
	}
	*res = Result{ID: meta.ID, Rows: m.Rows, Cols: m.Cols, R: make([][]float64, m.Rows)}
	for i := range res.R {
		res.R[i] = m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
	}
	return nil
}

// backoff charges one attempt and, if budget remains, sleeps the jittered
// delay (or the server's Retry-After hint carried on lastErr).
func (c *Client) backoff(ctx context.Context, attempt *int, lastErr error) error {
	*attempt++
	if *attempt >= c.retry.MaxAttempts {
		return nil // the loop condition ends the call with lastErr
	}
	var hint time.Duration
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) {
		hint = apiErr.RetryAfter
	}
	c.mu.Lock()
	d := c.retry.delay(*attempt-1, hint, c.rng)
	c.mu.Unlock()
	return c.sleep(ctx, d)
}

// readAPIError drains a non-2xx response into an *APIError. When v is
// non-nil the body is also decoded into it — some error responses (409)
// carry the existing job's status alongside the refusal.
func readAPIError(resp *http.Response, v any) *APIError {
	defer resp.Body.Close()
	apiErr := &APIError{Code: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		apiErr.Message = "unreadable error body"
		return apiErr
	}
	var em struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &em) == nil && em.Error != "" {
		apiErr.Message = em.Error
	} else {
		apiErr.Message = strings.TrimSpace(string(b))
	}
	if v != nil {
		_ = json.Unmarshal(b, v)
	}
	return apiErr
}
