package backend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// postTracedEvents ships one trace batch through POST /api/events with
// optional extra headers, returning the response status.
func postTracedEvents(t *testing.T, srv *Server, hs string, headers map[string]string, n int) int {
	t.Helper()
	tok := srv.Store.Sign("events/", store.PermWrite, srv.TokenTTL)
	var buf bytes.Buffer
	if err := flighting.WriteTraces(&buf, traceBatch(n, 3)); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", hs+"/api/events?user=u&signature=s&job_id=j", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(SASTokenHeader, tok)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func scrape(t *testing.T, url string) []telemetry.Family {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("content type = %q, want %q", ct, telemetry.ContentType)
	}
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scrape did not parse: %v", err)
	}
	return fams
}

// TestMetricsEndpoint drives one ingest + retrain and asserts the /metrics
// scrape parses and carries the request, updater, queue, store and drift
// series, none of them labelled by user or signature.
func TestMetricsEndpoint(t *testing.T) {
	srv, hs := newServer(t)
	if code := postTracedEvents(t, srv, hs.URL, nil, 8); code != http.StatusAccepted {
		t.Fatalf("ingest status = %d", code)
	}
	srv.Flush()

	fams := scrape(t, hs.URL)
	req, ok := telemetry.Find(fams, "rockhopper_http_requests_total")
	if !ok {
		t.Fatal("rockhopper_http_requests_total missing")
	}
	var events2xx float64
	for _, s := range req.Series {
		if s.Labels["endpoint"] == "events" && s.Labels["code"] == "2xx" {
			events2xx = s.Value
		}
	}
	if events2xx != 1 {
		t.Errorf("events 2xx count = %v, want 1", events2xx)
	}

	lat, ok := telemetry.Find(fams, "rockhopper_http_request_duration_seconds")
	if !ok || lat.Type != telemetry.KindHistogram {
		t.Fatalf("latency histogram missing or mistyped: %+v", lat)
	}

	retrains, ok := telemetry.Find(fams, "rockhopper_updater_retrains_total")
	if !ok || len(retrains.Series) != 1 || retrains.Series[0].Value != 1 {
		t.Fatalf("retrains = %+v, want single series at 1", retrains)
	}

	if trips, ok := telemetry.Find(fams, "rockhopper_signature_drift_trips_total"); !ok || len(trips.Series) != 1 || trips.Series[0].Value != 0 {
		t.Errorf("drift trips = %+v, want one unlabeled series at 0", trips)
	}
	for _, f := range fams {
		for _, s := range f.Series {
			if _, ok := s.Labels["signature"]; ok {
				t.Errorf("%s carries a signature label: %v", f.Name, s.Labels)
			}
			if _, ok := s.Labels["user"]; ok {
				t.Errorf("%s carries a user label: %v", f.Name, s.Labels)
			}
		}
	}

	if depth, ok := telemetry.Find(fams, "rockhopper_updater_queue_depth"); !ok {
		t.Error("queue depth gauge missing")
	} else if depth.Series[0].Value != 0 {
		t.Errorf("drained queue depth = %v, want 0", depth.Series[0].Value)
	}

	if objs, ok := telemetry.Find(fams, "rockhopper_store_objects"); !ok {
		t.Error("store size gauge missing")
	} else if objs.Series[0].Value < 2 {
		t.Errorf("store objects = %v, want >= 2 (event file + model)", objs.Series[0].Value)
	}
}

// TestTracePropagation sends a traced ingest and expects the identity in the
// span ring (via /api/trace) and in the retrain log line.
func TestTracePropagation(t *testing.T) {
	srv, hs := newServer(t)
	var logs bytes.Buffer
	srv.Logger = log.New(&logs, "", 0)

	const header = "00000000000000ab-00000000000000cd"
	code := postTracedEvents(t, srv, hs.URL, map[string]string{telemetry.TraceHeader: header}, 8)
	if code != http.StatusAccepted {
		t.Fatalf("ingest status = %d", code)
	}
	srv.Flush()

	resp, err := http.Get(hs.URL + "/api/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spans []telemetry.Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		t.Fatalf("span ring payload: %v", err)
	}
	found := false
	for _, sp := range spans {
		if sp.TraceID == "00000000000000ab" && sp.Name == "events" && sp.Status == "202" {
			found = true
		}
	}
	if !found {
		t.Errorf("traced request missing from span ring: %+v", spans)
	}

	// The retrain logs under the request's trace with the server's own child
	// span (same trace half, freshly minted span half).
	if !strings.Contains(logs.String(), "[trace 00000000000000ab-") ||
		!strings.Contains(logs.String(), "backend: retrained u/s") {
		t.Errorf("retrain log line lost the trace identity:\n%s", logs.String())
	}
}

// TestUntracedRequestsStayOutOfRing: requests without the header must not
// fabricate identities.
func TestUntracedRequestsStayOutOfRing(t *testing.T) {
	srv, hs := newServer(t)
	if code := postTracedEvents(t, srv, hs.URL, nil, 4); code != http.StatusAccepted {
		t.Fatalf("ingest status = %d", code)
	}
	srv.Flush()
	if spans := srv.tele.spans.Snapshot(); len(spans) != 0 {
		t.Errorf("untraced request recorded spans: %+v", spans)
	}
}

// TestLoadShedding pins the saturation contract: a full updater backlog
// turns ingest into 429 + Retry-After and counts a shed, and the path
// reopens as soon as the backlog drains.
func TestLoadShedding(t *testing.T) {
	srv, hs := newServer(t)

	// Saturate the backlog without racing the real updater.
	srv.mu.Lock()
	srv.pending = DefaultMaxPendingUpdates
	srv.mu.Unlock()

	tok := srv.Store.Sign("events/", store.PermWrite, srv.TokenTTL)
	var buf bytes.Buffer
	if err := flighting.WriteTraces(&buf, traceBatch(4, 3)); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", hs.URL+"/api/events?user=u&signature=s&job_id=j", &buf)
	req.Header.Set(SASTokenHeader, tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	if got := srv.tele.shed.With("events").Value(); got != 1 {
		t.Errorf("shed counter = %v, want 1", got)
	}

	// Queue drains -> ingest reopens.
	srv.mu.Lock()
	srv.pending = 0
	srv.mu.Unlock()
	if code := postTracedEvents(t, srv, hs.URL, nil, 4); code != http.StatusAccepted {
		t.Fatalf("post-drain ingest status = %d, want 202", code)
	}
	srv.Flush()

	// MaxPendingUpdates lowers the threshold.
	srv.MaxPendingUpdates = 1
	srv.mu.Lock()
	srv.pending = 1
	srv.mu.Unlock()
	if code := postTracedEvents(t, srv, hs.URL, nil, 4); code != http.StatusTooManyRequests {
		t.Fatalf("custom threshold ingest status = %d, want 429", code)
	}
	srv.mu.Lock()
	srv.pending = 0
	srv.mu.Unlock()
}

// TestHealthMatchesRegistry: the health report is now derived from the same
// registry series the scrape exposes, so the two must agree.
func TestHealthMatchesRegistry(t *testing.T) {
	_, hs := newServer(t)
	// One client error: object fetch with a bogus token.
	resp, err := http.Get(hs.URL + "/api/object?path=models/u/x.model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var h HealthReport
	hr := doJSON(t, "GET", hs.URL+"/api/health", nil, nil)
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	e := h.Endpoints["get_object"]
	if e.Requests != 1 || e.ClientErrors != 1 {
		t.Fatalf("health accounting = %+v, want 1 request / 1 client error", e)
	}
	if e.LastError == "" {
		t.Error("health report lost the last error body")
	}

	fams := scrape(t, hs.URL)
	req, _ := telemetry.Find(fams, "rockhopper_http_requests_total")
	var reg float64
	for _, s := range req.Series {
		if s.Labels["endpoint"] == "get_object" && s.Labels["code"] == "4xx" {
			reg = s.Value
		}
	}
	if int64(reg) != e.ClientErrors {
		t.Errorf("registry 4xx = %v, health ClientErrors = %d — must agree", reg, e.ClientErrors)
	}
}

// TestLatencyExemplarLinksTraceToBucket proves the full wiring: a traced
// request's span identity must surface as an OpenMetrics exemplar on the
// endpoint's latency histogram when /metrics is scraped.
func TestLatencyExemplarLinksTraceToBucket(t *testing.T) {
	srv, hs := newServer(t)
	sc := telemetry.SpanContext{TraceID: 0x1111222233334444, SpanID: 0x5555666677778888}
	status := postTracedEvents(t, srv, hs.URL, map[string]string{telemetry.TraceHeader: sc.String()}, 2)
	if status != http.StatusAccepted {
		t.Fatalf("traced ingest status = %d", status)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scrape parse: %v", err)
	}
	fam, ok := telemetry.Find(fams, "rockhopper_http_request_duration_seconds")
	if !ok {
		t.Fatal("latency family missing from scrape")
	}
	for _, s := range fam.Series {
		if !strings.HasSuffix(s.Name, "_bucket") || s.Labels["endpoint"] != "events" {
			continue
		}
		if s.Exemplar != nil {
			// The exemplar carries the server's own child span: same trace
			// as the inbound header, but a freshly minted span ID parented
			// under it (the propagation contract).
			if s.Exemplar.TraceID != sc.TraceHex() {
				t.Fatalf("exemplar trace = %+v, want trace %s", s.Exemplar, sc.TraceHex())
			}
			if s.Exemplar.SpanID == sc.SpanHex() || s.Exemplar.SpanID == "" {
				t.Fatalf("exemplar span = %q, want a fresh server child span, not the inbound %s", s.Exemplar.SpanID, sc.SpanHex())
			}
			return
		}
	}
	t.Fatal("no latency bucket carries the traced request's exemplar")
}

// TestScrapeSizeIndependentOfSignatures: /metrics holds aggregates only, so
// its size does not grow with the number of retrained signatures. One batch
// of 4 traces per signature retrains every signature once; the scrape after
// 1 000 signatures must be within 5 % of the scrape after 10.
func TestScrapeSizeIndependentOfSignatures(t *testing.T) {
	scrapeBytes := func(n int) int {
		srv, hs := newServer(t)
		srv.MaxPendingUpdates = n
		sigs := make([]string, n)
		for i := range sigs {
			sigs[i] = fmt.Sprintf("sig%04d", i)
		}
		code, br, err := postBatch(srv, hs.URL, "u", "j", sigTraces(sigs, 4, 3))
		if err != nil || code != http.StatusAccepted || br.Signatures != n {
			t.Fatalf("%d-signature batch: status %d, %+v, %v", n, code, br, err)
		}
		srv.Flush()
		if got := srv.tele.retrains.Value(); got != float64(n) {
			t.Fatalf("retrains = %v, want %d", got, n)
		}
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return len(body)
	}
	small, large := scrapeBytes(10), scrapeBytes(1000)
	if ratio := float64(large) / float64(small); ratio < 0.95 || ratio > 1.05 {
		t.Errorf("/metrics is %d B after 10 signatures and %d B after 1000 (ratio %.2f); want within 5 %%", small, large, ratio)
	}
}
