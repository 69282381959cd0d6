package faultinject

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/store"
)

func TestRateDeterministic(t *testing.T) {
	decide := func(seed uint64) []bool {
		r := &Rate{P: 0.3, RNG: stats.NewRNG(seed)}
		out := make([]bool, 100)
		for i := range out {
			out[i] = r.Decide("op").Err != nil
		}
		return out
	}
	a, b := decide(5), decide(5)
	faults := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically seeded plans", i)
		}
		if a[i] {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("rate 0.3 produced %d/100 faults", faults)
	}
}

func TestFailNRecovers(t *testing.T) {
	f := &FailN{N: 3}
	for i := 0; i < 3; i++ {
		if f.Decide("op").Err == nil {
			t.Fatalf("op %d should fault", i)
		}
	}
	for i := 0; i < 5; i++ {
		if f.Decide("op").Err != nil {
			t.Fatalf("op %d after recovery should pass", i)
		}
	}
}

func TestScriptSequence(t *testing.T) {
	s := &Script{Fail: []bool{true, false, true}}
	want := []bool{true, false, true, false, false}
	for i, w := range want {
		if got := s.Decide("op").Err != nil; got != w {
			t.Fatalf("op %d fault = %v, want %v", i, got, w)
		}
	}
}

func TestForOpsFilters(t *testing.T) {
	p := &ForOps{Plan: &FailN{N: 100}, Ops: []string{"store.Get"}}
	if p.Decide("store.Put").Err != nil {
		t.Fatal("unlisted op must pass")
	}
	if p.Decide("store.Get").Err == nil {
		t.Fatal("listed op must fault")
	}
}

func TestTransportInjectsAndCounts(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer hs.Close()
	tr := &Transport{Plan: &Script{Fail: []bool{true, false}}}
	c := &http.Client{Transport: tr}
	if _, err := c.Get(hs.URL); err == nil {
		t.Fatal("first request should fault")
	}
	resp, err := c.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tr.Attempts.Load() != 2 || tr.Forwarded.Load() != 1 {
		t.Fatalf("attempts=%d forwarded=%d", tr.Attempts.Load(), tr.Forwarded.Load())
	}
}

func TestStoreWrapperInjects(t *testing.T) {
	inner := store.New([]byte("k"))
	fs := &Store{Inner: inner, Plan: &ForOps{Plan: &FailN{N: 1}, Ops: []string{"store.Commit"}}}
	entries := []store.Entry{{Path: "a/x", Data: []byte("1")}}
	if err := fs.Commit(context.Background(), entries); !errors.Is(err, ErrInjected) {
		t.Fatalf("first Commit should fault, got %v", err)
	}
	if inner.Len() != 0 {
		t.Fatal("faulted Commit reached the inner store")
	}
	if err := fs.Commit(context.Background(), entries); err != nil {
		t.Fatalf("second Commit should pass: %v", err)
	}
	if _, err := fs.GetInternal("a/x"); err != nil {
		t.Fatal(err)
	}
	if got := fs.List("a/"); len(got) != 1 {
		t.Fatalf("List = %v", got)
	}
}
