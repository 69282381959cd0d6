// Package client implements the Autotune Client of Section 5: the
// components running on a customer's Spark cluster. The credential manager
// retrieves and caches scoped access tokens (SAS URLs) from the Autotune
// Manager, the model loader fetches per-signature surrogate models, the
// query listener writes execution event files back to the backend, and the
// config-inference module combines a remotely trained model with local
// Centroid Learning state to pick the configuration applied before the
// physical planning stage.
//
// Every backend call carries a context deadline, is retried with jittered
// exponential backoff on transient failures (transport faults, 5xx, 429),
// and flows through a circuit breaker so a dead backend costs one fast
// failing check per call instead of a full timeout (internal/resilience).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/url"
	"sync"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/applevel"
	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/core"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/resilience"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
	"github.com/rockhopper-db/rockhopper/internal/tuners"
)

// Default deadlines. DefaultCallTimeout bounds one logical call (all retry
// attempts included) when the caller's context carries no deadline;
// DefaultHTTPTimeout bounds a single HTTP round trip when no custom
// http.Client is supplied — never the unbounded http.DefaultClient.
const (
	DefaultCallTimeout = 10 * time.Second
	DefaultHTTPTimeout = 30 * time.Second
)

// defaultHTTPClient replaces http.DefaultClient (which has no timeout).
var defaultHTTPClient = &http.Client{Timeout: DefaultHTTPTimeout}

// Client talks to the Autotune Backend. It is safe for concurrent use.
type Client struct {
	// BaseURL is the Autotune Manager endpoint, provided as a Spark
	// configuration at job submission.
	BaseURL string
	// ClusterSecret is the Fabric-token-service credential.
	ClusterSecret string
	// HTTP is the transport; nil means a shared client with
	// DefaultHTTPTimeout.
	HTTP *http.Client
	// Logger records inference rationale ("the suggested configurations
	// along with their rationale"); nil silences it.
	Logger *log.Logger
	// Retry is the per-call retry policy; the zero value uses the
	// resilience defaults.
	Retry resilience.Policy
	// CallTimeout bounds each logical call when the caller's context has no
	// deadline; 0 means DefaultCallTimeout, negative disables the bound.
	CallTimeout time.Duration
	// Breaker short-circuits calls while the backend is unhealthy; nil
	// disables circuit breaking. New installs a default breaker.
	Breaker *resilience.Breaker
	// Clock drives backoff sleeps and breaker cool-downs; nil means the
	// wall clock. Injectable for deterministic tests.
	Clock resilience.Clock
	// Metrics is the registry the client publishes its per-call counters
	// into; nil discards them. Set it before the first call — instruments
	// bind lazily once and later changes are ignored.
	Metrics *telemetry.Registry
	// Tracer records a root span per logical call the client originates
	// (callers that pass an already-traced context keep their own spans);
	// nil records nothing. The root identity is still minted from the
	// call's jitter stream, so enabling tracing never shifts the
	// retry-jitter draw sequence — the tracer only adopts it.
	Tracer *telemetry.Tracer

	mu       sync.Mutex
	tokens   map[string]cachedToken
	inflight map[string]*tokenFetch
	rng      *stats.RNG

	teleOnce  sync.Once
	teleBound *clientTelemetry
}

type cachedToken struct {
	token   string
	expires time.Time
}

// tokenFetch deduplicates concurrent refreshes of one cache key: the first
// caller fetches, later callers wait on done and share the result.
type tokenFetch struct {
	done  chan struct{}
	token string
	err   error
}

// New returns a client for the given backend endpoint with the default
// resilience stack (call deadlines, retries, circuit breaker).
func New(baseURL, clusterSecret string) *Client {
	return &Client{
		BaseURL:       baseURL,
		ClusterSecret: clusterSecret,
		Breaker:       &resilience.Breaker{},
		tokens:        make(map[string]cachedToken),
		inflight:      make(map[string]*tokenFetch),
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

func (c *Client) clock() resilience.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return resilience.RealClock{}
}

// splitRNG derives an independent jitter stream per call under the lock, so
// concurrent retry loops never race on one generator.
func (c *Client) splitRNG() *stats.RNG {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = stats.NewRNG(uint64(c.clock().Now().UnixNano()))
	}
	return c.rng.Split()
}

// SeedJitter makes backoff jitter deterministic (tests, simulations).
func (c *Client) SeedJitter(seed uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rng = stats.NewRNG(seed)
}

func (c *Client) logf(format string, args ...any) {
	if c.Logger != nil {
		c.Logger.Printf(format, args...)
	}
}

// callCtx applies the per-call deadline when the caller brought none.
func (c *Client) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	d := c.CallTimeout
	if d == 0 {
		d = DefaultCallTimeout
	}
	if d < 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// do executes one backend call through the breaker and retry loop. kind is
// the bounded call class used as the metrics label; op is the human-readable
// operation (it may embed paths, so it never reaches a label). build
// constructs a fresh request per attempt (so bodies replay safely), want is
// the success status, and recv consumes the successful response.
func (c *Client) do(ctx context.Context, kind, op string, want int, build func(ctx context.Context) (*http.Request, error), recv func(*http.Response) error) error {
	tele := c.tele()
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	// The trace identity rides the jitter stream: a caller-provided span is
	// propagated, otherwise the client mints the root — either way every
	// attempt of this logical call shares one X-Rockhopper-Trace value.
	rng := c.splitRNG()
	sc := telemetry.SpanFrom(ctx)
	var sp *telemetry.ActiveSpan
	if !sc.Valid() {
		sc = telemetry.Mint(rng)
		sp = c.Tracer.Adopt(sc, 0, op, "client")
	}
	ctx = telemetry.WithSpan(ctx, sc)
	br := c.Breaker
	attempt := func(ctx context.Context) error {
		if br != nil {
			if err := br.Allow(); err != nil {
				return fmt.Errorf("client: %s: %w", op, err)
			}
		}
		tele.attempts.With(kind).Inc()
		err := c.attempt(ctx, op, want, sc, build, recv)
		if br != nil {
			// Any response — even a 4xx — proves the backend is alive;
			// only transport faults, timeouts, and 5xx count against it.
			if err == nil || (resilience.StatusOf(err) > 0 && resilience.StatusOf(err) < 500) {
				br.Record(nil)
			} else {
				br.Record(err)
			}
		}
		return err
	}
	p := c.Retry
	callerHook := p.OnRetry
	p.OnRetry = func(attempt int, err error, delay time.Duration) {
		tele.retries.With(kind).Inc()
		if callerHook != nil {
			callerHook(attempt, err, delay)
		}
	}
	start := c.clock().Now()
	err := resilience.Retry(ctx, p, c.clock(), rng, attempt)
	tele.latency.With(kind).Observe(c.clock().Now().Sub(start).Seconds())
	tele.calls.With(kind, callOutcome(err)).Inc()
	sp.Finish(callOutcome(err))
	return err
}

// callOutcome buckets a finished call for the calls counter.
func callOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, resilience.ErrCircuitOpen):
		return "circuit_open"
	default:
		return "error"
	}
}

// attempt performs a single HTTP round trip carrying the call's trace
// identity.
func (c *Client) attempt(ctx context.Context, op string, want int, sc telemetry.SpanContext, build func(ctx context.Context) (*http.Request, error), recv func(*http.Response) error) error {
	req, err := build(ctx)
	if err != nil {
		return err
	}
	if sc.Valid() {
		req.Header.Set(telemetry.TraceHeader, sc.String())
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("client: %s: %w", op, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return &resilience.HTTPError{Op: "client: " + op, Status: resp.StatusCode, Msg: string(bytes.TrimSpace(msg))}
	}
	return recv(resp)
}

// Token returns a (possibly cached) access token for prefix+perm — the
// AutotuneCredentialManager: "SAS URLs being cached and refreshed as
// needed".
func (c *Client) Token(ctx context.Context, prefix string, perm store.Permission) (string, error) {
	key := string(perm) + "|" + prefix
	c.mu.Lock()
	if t, ok := c.tokens[key]; ok && c.clock().Now().Before(t.expires) {
		c.mu.Unlock()
		return t.token, nil
	}
	// Expired or missing: dedupe the refresh so a burst of concurrent
	// requests issues one backend call instead of a thundering herd.
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.token, f.err
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	f := &tokenFetch{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	token, err := c.fetchToken(ctx, key, prefix, perm)
	f.token, f.err = token, err
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return token, err
}

// fetchToken performs the actual backend round trip and fills the cache.
func (c *Client) fetchToken(ctx context.Context, key, prefix string, perm store.Permission) (string, error) {
	body, _ := json.Marshal(backend.TokenRequest{Prefix: prefix, Perm: perm})
	var tr backend.TokenResponse
	err := c.do(ctx, "token", "token "+key, http.StatusOK,
		func(ctx context.Context) (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/api/token", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			req.Header.Set(backend.ClusterTokenHeader, c.ClusterSecret)
			return req, nil
		},
		func(resp *http.Response) error {
			if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
				return fmt.Errorf("client: token decode: %w", err)
			}
			return nil
		})
	if err != nil {
		return "", err
	}
	// Refresh two minutes before expiry (or at half-life for short TTLs).
	ttl := time.Duration(tr.TTLSeconds * float64(time.Second))
	margin := 2 * time.Minute
	if ttl <= 2*margin {
		margin = ttl / 2
	}
	now := c.clock().Now()
	c.mu.Lock()
	// Every job ID is its own events/<job>/ prefix, so keys never repeat:
	// without this pass the cache grows by one entry per job forever.
	for k, t := range c.tokens {
		if !now.Before(t.expires) {
			delete(c.tokens, k)
		}
	}
	c.tokens[key] = cachedToken{token: tr.Token, expires: now.Add(ttl - margin)}
	c.mu.Unlock()
	return tr.Token, nil
}

// GetObject fetches a store object through a read token on its directory.
func (c *Client) GetObject(ctx context.Context, p string) ([]byte, error) {
	tok, err := c.Token(ctx, dirOf(p), store.PermRead)
	if err != nil {
		return nil, err
	}
	var blob []byte
	err = c.do(ctx, "get_object", "get "+p, http.StatusOK,
		func(ctx context.Context) (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/api/object?"+url.Values{"path": {p}}.Encode(), nil)
			if err != nil {
				return nil, err
			}
			req.Header.Set(backend.SASTokenHeader, tok)
			return req, nil
		},
		func(resp *http.Response) error {
			var rerr error
			blob, rerr = readObject(resp, backend.MaxObjectBytes)
			return rerr
		})
	if err != nil {
		return nil, err
	}
	return blob, nil
}

// readObject reads a GET /api/object body of at most limit bytes into a
// buffer sized from the declared length: a misbehaving endpoint costs an
// error, not the process's memory.
func readObject(resp *http.Response, limit int64) ([]byte, error) {
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("client: object of %d bytes exceeds the %d-byte limit", resp.ContentLength, limit)
	}
	var buf bytes.Buffer
	if resp.ContentLength > 0 {
		// +MinRead: ReadFrom wants spare room to see EOF without regrowing.
		buf.Grow(int(resp.ContentLength) + bytes.MinRead)
	}
	n, err := buf.ReadFrom(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("client: object exceeds the %d-byte limit", limit)
	}
	return buf.Bytes(), nil
}

func dirOf(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[:i+1]
		}
	}
	return p
}

// FetchModel loads and deserializes the surrogate for a query signature —
// the model loader. A model the backend has not trained yet (HTTP 404) is
// not an error: it returns (nil, nil) so callers fall back to the baseline.
// Every other failure — auth rejection, transport fault, corrupt blob — is
// surfaced, never conflated with a cold start.
func (c *Client) FetchModel(ctx context.Context, user, signature string) (ml.Regressor, error) {
	blob, err := c.GetObject(ctx, store.ModelPath(user, signature))
	if err != nil {
		if resilience.IsNotFound(err) {
			return nil, nil // true cold start: no model trained yet
		}
		return nil, fmt.Errorf("client: model %s/%s: %w", user, signature, err)
	}
	m, err := ml.Unmarshal(blob)
	if err != nil {
		return nil, fmt.Errorf("client: model %s/%s: %w", user, signature, err)
	}
	return m, nil
}

// PostEvents ships a batch of execution traces to the backend — the query
// listener's event write (Step 6 of Figure 7).
func (c *Client) PostEvents(ctx context.Context, user, signature, jobID string, traces []flighting.Trace) error {
	var buf bytes.Buffer
	if err := flighting.WriteTraces(&buf, traces); err != nil {
		return err
	}
	_, err := c.postIngest(ctx, "post_events", "post events", jobID,
		"/api/events?"+url.Values{"user": {user}, "signature": {signature}, "job_id": {jobID}}.Encode(), buf.Bytes())
	return err
}

// postIngest is the request path every ingest post shares: a write token on
// the job's event folder, one POST of body to path, and the decoded 202
// body. Decoding is not optional: a response body left unread costs the
// keep-alive connection, and the next post dials anew.
func (c *Client) postIngest(ctx context.Context, kind, op, jobID, path string, body []byte) (backend.BatchResponse, error) {
	var ack backend.BatchResponse
	tok, err := c.Token(ctx, "events/"+jobID+"/", store.PermWrite)
	if err != nil {
		return ack, err
	}
	err = c.do(ctx, kind, op+" "+jobID, http.StatusAccepted,
		func(ctx context.Context) (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			req.Header.Set(backend.SASTokenHeader, tok)
			return req, nil
		},
		func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&ack)
		})
	return ack, err
}

// FetchAppCache retrieves the pre-computed app-level configuration for a
// recurrent artifact (Step 3 of Figure 7). ok is false when none exists.
func (c *Client) FetchAppCache(ctx context.Context, artifactID string) (applevel.CacheEntry, bool, error) {
	var e applevel.CacheEntry
	err := c.do(ctx, "get_appcache", "app cache "+artifactID, http.StatusOK,
		func(ctx context.Context) (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/api/appcache?"+url.Values{"artifact_id": {artifactID}}.Encode(), nil)
			if err != nil {
				return nil, err
			}
			req.Header.Set(backend.ClusterTokenHeader, c.ClusterSecret)
			return req, nil
		},
		func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&e)
		})
	if err != nil {
		if resilience.IsNotFound(err) {
			return applevel.CacheEntry{}, false, nil
		}
		return applevel.CacheEntry{}, false, err
	}
	return e, true, nil
}

// Explain reads a signature's tuning state from the node that owns it
// (GET /api/explain, no credential): its last retrain pass and its drift
// detector. The backend answers 404 before the signature's first pass on
// that node.
func (c *Client) Explain(ctx context.Context, user, signature string) (backend.SignatureState, error) {
	var st backend.SignatureState
	err := c.do(ctx, "explain", "explain "+signature, http.StatusOK,
		func(ctx context.Context) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/api/explain?"+url.Values{"user": {user}, "signature": {signature}}.Encode(), nil)
		},
		func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&st)
		})
	return st, err
}

// ComputeAppCache asks the backend's App Cache Generator to recompute the
// artifact's app-level configuration after an application run.
func (c *Client) ComputeAppCache(ctx context.Context, reqBody backend.AppCacheRequest) (applevel.CacheEntry, error) {
	body, err := json.Marshal(reqBody)
	if err != nil {
		return applevel.CacheEntry{}, err
	}
	var e applevel.CacheEntry
	err = c.do(ctx, "compute_appcache", "compute app cache "+reqBody.ArtifactID, http.StatusOK,
		func(ctx context.Context) (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/api/appcache", bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			req.Header.Set(backend.ClusterTokenHeader, c.ClusterSecret)
			return req, nil
		},
		func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&e)
		})
	if err != nil {
		return applevel.CacheEntry{}, err
	}
	return e, nil
}

// RemoteSelector is a core.Selector that ranks candidates with the
// backend-trained model for this signature, falling back to the provided
// selector when no model exists yet — the Autotune Config Inference module.
//
// Degradation ladder: remote model → (on error or open circuit) local
// fallback. Non-cold-start failures are logged once per degradation episode
// rather than silently swallowed, and once the client's circuit breaker
// opens, each Select costs one fast-failing check until the cool-down
// admits a probe — the backend is never hammered while it is down.
type RemoteSelector struct {
	Client    *Client
	Space     *sparksim.Space
	User      string
	Signature string
	// Fallback handles the cold start; must be non-nil.
	Fallback core.Selector
	// Fetch overrides the model source; nil means Client.FetchModel. The
	// shard router injects its fleet-routed fetch here so inference
	// follows shard ownership across failover.
	Fetch func(ctx context.Context, user, signature string) (ml.Regressor, error)

	mu       sync.Mutex
	degraded bool
}

// Select implements core.Selector, whose signature carries no context: the
// remote fetch below is bounded by the client's own CallTimeout instead.
//
//rocklint:allow ctxfirst -- core.Selector interface signature is fixed; FetchModel is bounded by the client CallTimeout
func (rs *RemoteSelector) Select(cands []sparksim.Config, window []sparksim.Observation, dataSize float64) int {
	fetch := rs.Client.FetchModel
	if rs.Fetch != nil {
		fetch = rs.Fetch
	}
	model, err := fetch(context.Background(), rs.User, rs.Signature)
	if err != nil {
		rs.noteDegraded(err)
		rs.Client.tele().fallbacks.With(fallbackError).Inc()
		return rs.Fallback.Select(cands, window, dataSize)
	}
	rs.noteRecovered()
	if model == nil {
		// Cold start: the backend simply has not trained this signature.
		rs.Client.tele().fallbacks.With(fallbackColdStart).Inc()
		return rs.Fallback.Select(cands, window, dataSize)
	}
	bestIdx, bestPred := -1, math.Inf(1)
	for i, cand := range cands {
		p := model.Predict(tuners.ConfigFeatures(rs.Space, nil, cand, dataSize))
		if !math.IsNaN(p) && p < bestPred {
			bestIdx, bestPred = i, p
		}
	}
	if bestIdx < 0 {
		rs.Client.tele().fallbacks.With(fallbackNoPrediction).Inc()
		return rs.Fallback.Select(cands, window, dataSize)
	}
	rs.Client.logf("client: %s/%s selected candidate %d (predicted log-time %.3f) among %d",
		rs.User, rs.Signature, bestIdx, bestPred, len(cands))
	return bestIdx
}

// noteDegraded logs the first failure of a degradation episode; subsequent
// failures stay quiet until the remote path recovers.
func (rs *RemoteSelector) noteDegraded(err error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.degraded {
		rs.degraded = true
		rs.Client.logf("client: %s/%s: remote inference degraded, using local fallback: %v",
			rs.User, rs.Signature, err)
	}
}

func (rs *RemoteSelector) noteRecovered() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.degraded {
		rs.degraded = false
		rs.Client.logf("client: %s/%s: remote inference recovered", rs.User, rs.Signature)
	}
}

// Degraded reports whether the last Select hit a non-cold-start failure.
func (rs *RemoteSelector) Degraded() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.degraded
}

var _ core.Selector = (*RemoteSelector)(nil)
