package store

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func fixedClock(t time.Time) func() time.Time { return func() time.Time { return t } }

func TestPathHelpers(t *testing.T) {
	t.Parallel()
	if EventPath("job-1", 7) != "events/job-1/run-000007.jsonl" {
		t.Fatalf("event path = %q", EventPath("job-1", 7))
	}
	if ArtifactPath("a1", "cache.json") != "artifacts/a1/cache.json" {
		t.Fatal("artifact path wrong")
	}
	if ModelPath("u1", "sig-9") != "models/u1/sig-9.model" {
		t.Fatal("model path wrong")
	}
}

func TestTokenRoundTrip(t *testing.T) {
	t.Parallel()
	s := New([]byte("secret"))
	tok := s.Sign("events/job-1/", PermWrite, time.Hour)
	if err := s.Verify(tok, "events/job-1/run-000001.jsonl", PermWrite); err != nil {
		t.Fatal(err)
	}
}

func TestTokenScope(t *testing.T) {
	t.Parallel()
	s := New([]byte("secret"))
	tok := s.Sign("events/job-1/", PermWrite, time.Hour)
	if err := s.Verify(tok, "events/job-2/x", PermWrite); !errors.Is(err, ErrTokenScope) {
		t.Fatalf("cross-job access should be scoped out, got %v", err)
	}
	if err := s.Verify(tok, "events/job-1/x", PermRead); !errors.Is(err, ErrTokenScope) {
		t.Fatalf("write token must not grant read, got %v", err)
	}
}

func TestTokenExpiry(t *testing.T) {
	t.Parallel()
	s := New([]byte("secret"))
	base := time.Unix(1000, 0)
	s.SetClock(fixedClock(base))
	tok := s.Sign("models/", PermRead, time.Minute)
	s.SetClock(fixedClock(base.Add(2 * time.Minute)))
	if err := s.Verify(tok, "models/u/sig.model", PermRead); !errors.Is(err, ErrTokenExpired) {
		t.Fatalf("expected expiry, got %v", err)
	}
}

func TestTokenForgery(t *testing.T) {
	t.Parallel()
	s1 := New([]byte("secret-a"))
	s2 := New([]byte("secret-b"))
	tok := s1.Sign("models/", PermRead, time.Hour)
	if err := s2.Verify(tok, "models/x", PermRead); !errors.Is(err, ErrTokenInvalid) {
		t.Fatalf("cross-secret token should be invalid, got %v", err)
	}
	if err := s1.Verify("garbage!!", "models/x", PermRead); !errors.Is(err, ErrTokenInvalid) {
		t.Fatalf("garbage token should be invalid, got %v", err)
	}
}

func TestPutGetWithTokens(t *testing.T) {
	t.Parallel()
	s := New([]byte("k"))
	w := s.Sign("events/j/", PermWrite, time.Hour)
	r := s.Sign("events/j/", PermRead, time.Hour)
	p := EventPath("j", 1)
	if err := s.Put(w, p, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(r, p)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if _, err := s.Get(r, EventPath("j", 2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object should be ErrNotFound, got %v", err)
	}
	if err := s.Put(r, p, []byte("x")); err == nil {
		t.Fatal("read token must not allow writes")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	t.Parallel()
	s := New([]byte("k"))
	s.PutInternal("models/u/a.model", []byte{1, 2, 3})
	blob, err := s.GetInternal("models/u/a.model")
	if err != nil {
		t.Fatal(err)
	}
	blob[0] = 99
	again, _ := s.GetInternal("models/u/a.model")
	if again[0] == 99 {
		t.Fatal("store leaked internal buffer")
	}
}

func TestList(t *testing.T) {
	t.Parallel()
	s := New([]byte("k"))
	s.PutInternal("events/a/1", nil)
	s.PutInternal("events/a/2", nil)
	s.PutInternal("events/b/1", nil)
	if got := s.List("events/a/"); len(got) != 2 || got[0] != "events/a/1" {
		t.Fatalf("list = %v", got)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	s.Delete("events/a/1")
	if s.Len() != 2 {
		t.Fatal("delete failed")
	}
	s.Delete("events/a/1") // idempotent
}

func TestRetentionCleanup(t *testing.T) {
	t.Parallel()
	s := New([]byte("k"))
	base := time.Unix(5000, 0)
	s.SetClock(fixedClock(base))
	s.PutInternal("events/j/old", []byte("x"))
	s.PutInternal("models/u/keep.model", []byte("m"))
	s.SetClock(fixedClock(base.Add(48 * time.Hour)))
	s.PutInternal("events/j/new", []byte("y"))
	n := s.CleanupOlderThan(24 * time.Hour)
	if n != 1 {
		t.Fatalf("cleaned %d; want 1", n)
	}
	if _, err := s.GetInternal("events/j/old"); err == nil {
		t.Fatal("old event should be gone")
	}
	if _, err := s.GetInternal("events/j/new"); err != nil {
		t.Fatal("new event should remain")
	}
	if _, err := s.GetInternal("models/u/keep.model"); err != nil {
		t.Fatal("models are not subject to event retention")
	}
}

func TestConcurrentAccess(t *testing.T) {
	t.Parallel()
	s := New([]byte("k"))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				p := EventPath("job", i*1000+j)
				s.PutInternal(p, []byte{byte(j)})
				if _, err := s.GetInternal(p); err != nil {
					t.Error(err)
					return
				}
				s.List("events/")
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("len = %d", s.Len())
	}
}
