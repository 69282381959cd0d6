package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/store"
)

const secret = "s3cret"

func newServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(sparksim.QuerySpace(), store.New([]byte("key")), secret, 1)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs
}

func doJSON(t *testing.T, method, url string, headers map[string]string, body any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func auth() map[string]string { return map[string]string{ClusterTokenHeader: secret} }

func TestTokenRequiresAuth(t *testing.T) {
	_, hs := newServer(t)
	resp := doJSON(t, "POST", hs.URL+"/api/token", nil, TokenRequest{Prefix: "x/", Perm: store.PermRead})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestTokenValidation(t *testing.T) {
	_, hs := newServer(t)
	resp := doJSON(t, "POST", hs.URL+"/api/token", auth(), TokenRequest{Prefix: "", Perm: store.PermRead})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty prefix: status = %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", hs.URL+"/api/token", auth(), TokenRequest{Prefix: "x/", Perm: "rw"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad perm: status = %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", hs.URL+"/api/token", auth(), TokenRequest{Prefix: "x/", Perm: store.PermWrite})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good request: status = %d", resp.StatusCode)
	}
	var tr TokenResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil || tr.Token == "" || tr.TTLSeconds <= 0 {
		t.Fatalf("token response malformed: %+v err=%v", tr, err)
	}
}

func TestObjectAccessNeedsValidToken(t *testing.T) {
	srv, hs := newServer(t)
	if err := srv.Store.Commit(context.Background(), []store.Entry{{Path: "models/u/sig.model", Data: []byte("blob")}}); err != nil {
		t.Fatal(err)
	}
	// No token.
	resp := doJSON(t, "GET", hs.URL+"/api/object?path=models/u/sig.model", nil, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("tokenless read: status = %d", resp.StatusCode)
	}
	// Wrong-scope token.
	tok := srv.Store.Sign("events/", store.PermRead, srv.TokenTTL)
	resp = doJSON(t, "GET", hs.URL+"/api/object?path=models/u/sig.model",
		map[string]string{SASTokenHeader: tok}, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("scoped-out read: status = %d", resp.StatusCode)
	}
	// Missing object with a valid token is 404.
	tok = srv.Store.Sign("models/", store.PermRead, srv.TokenTTL)
	resp = doJSON(t, "GET", hs.URL+"/api/object?path=models/u/other.model",
		map[string]string{SASTokenHeader: tok}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing object: status = %d", resp.StatusCode)
	}
}

// TestGetObjectDeclaresLength: an object larger than net/http's 2 KB sniff
// buffer must still go out with a Content-Length (not chunked), so the
// client can size its read buffer once.
func TestGetObjectDeclaresLength(t *testing.T) {
	srv, hs := newServer(t)
	blob := bytes.Repeat([]byte{0xA5}, 8<<10)
	if err := srv.Store.Commit(context.Background(), []store.Entry{{Path: "models/u/big.model", Data: blob}}); err != nil {
		t.Fatal(err)
	}
	tok := srv.Store.Sign("models/", store.PermRead, srv.TokenTTL)
	resp := doJSON(t, "GET", hs.URL+"/api/object?path=models/u/big.model", map[string]string{SASTokenHeader: tok}, nil)
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(blob)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("status %d, Content-Length %d, Transfer-Encoding %v; want 200, %d, none",
			resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(blob))
	}
	if got, err := io.ReadAll(resp.Body); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("body: %d bytes, err %v", len(got), err)
	}
}

func TestEventsValidation(t *testing.T) {
	srv, hs := newServer(t)
	tok := srv.Store.Sign("events/", store.PermWrite, srv.TokenTTL)
	hdr := map[string]string{SASTokenHeader: tok}

	// Missing identifiers.
	req, _ := http.NewRequest("POST", hs.URL+"/api/events?user=u", strings.NewReader(""))
	req.Header.Set(SASTokenHeader, tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing params: status = %d", resp.StatusCode)
	}

	// A user or signature that is not one path segment would alias another
	// tenant's index and model keys, or escape models/ altogether.
	for _, bad := range badSegments {
		for _, q := range []string{"user=" + bad + "&signature=s", "user=u&signature=" + bad} {
			req, _ = http.NewRequest("POST", hs.URL+"/api/events?job_id=j&"+q, strings.NewReader(""))
			req.Header.Set(SASTokenHeader, tok)
			resp, err = http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status = %d, want 400", q, resp.StatusCode)
			}
		}
	}

	// Corrupt payload must be rejected before persisting.
	req, _ = http.NewRequest("POST", hs.URL+"/api/events?user=u&signature=s&job_id=j",
		strings.NewReader("{not json lines"))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt payload: status = %d", resp.StatusCode)
	}
	if n := len(srv.Store.List("events/")); n != 0 {
		t.Fatalf("corrupt payload persisted %d files", n)
	}
}

func TestRetrainSkipsTinyHistories(t *testing.T) {
	srv, hs := newServer(t)
	tok := srv.Store.Sign("events/j/", store.PermWrite, srv.TokenTTL)
	space := sparksim.QuerySpace()
	var buf bytes.Buffer
	if err := flighting.WriteTraces(&buf, []flighting.Trace{{
		QueryID: "s", Config: space.Default(), DataSize: 1, TimeMs: 1,
	}}); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", hs.URL+"/api/events?user=u&signature=s&job_id=j", &buf)
	req.Header.Set(SASTokenHeader, tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	srv.Flush()
	if _, err := srv.Store.GetInternal(store.ModelPath("u", "s")); err == nil {
		t.Fatal("one trace must not be enough to train a model")
	}
}

func TestAppCacheValidation(t *testing.T) {
	_, hs := newServer(t)
	// Unauthenticated.
	resp := doJSON(t, "POST", hs.URL+"/api/appcache", nil, AppCacheRequest{})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated: status = %d", resp.StatusCode)
	}
	// No queries.
	resp = doJSON(t, "POST", hs.URL+"/api/appcache", auth(), AppCacheRequest{
		ArtifactID: "a", Current: sparksim.QuerySpace().Default(),
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty queries: status = %d", resp.StatusCode)
	}
	// Query space has no app params → unprocessable once states fit.
	space := sparksim.QuerySpace()
	var obs []sparksim.Observation
	for i := 0; i < 8; i++ {
		cfg := space.With(space.Default(), sparksim.ShufflePartitions, float64(100+10*i))
		obs = append(obs, sparksim.Observation{Config: cfg, DataSize: 1e9, Time: float64(1000 + i)})
	}
	resp = doJSON(t, "POST", hs.URL+"/api/appcache", auth(), AppCacheRequest{
		ArtifactID: "a", Current: space.Default(),
		Queries: []QueryHistory{{ID: "q", Centroid: space.Default(), Observations: obs}},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("no app params: status = %d", resp.StatusCode)
	}
	// Missing artifact on GET.
	resp = doJSON(t, "GET", hs.URL+"/api/appcache?artifact_id=nope", auth(), nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing artifact: status = %d", resp.StatusCode)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	srv := New(sparksim.QuerySpace(), store.New([]byte("k")), secret, 1)
	srv.Close()
	srv.Close() // must not panic or deadlock
}
