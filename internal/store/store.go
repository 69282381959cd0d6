// Package store is the Autotune Backend's storage manager (Section 5): it
// keeps event files and model blobs in per-application folders, enforces
// restricted access through expiring HMAC-signed tokens (the stand-in for
// Azure SAS URLs), and runs the GDPR-compliance retention cleanup that
// removes outdated event files.
//
// Folder conventions mirror the paper: each Spark application gets a folder
// for its event files keyed by job ID, plus a folder keyed by artifact_id
// shared across runs of the same Spark definition, and models live under the
// owning user and query signature so that "models are trained exclusively
// with baseline data and query traces originating from the same user and
// query signature".
package store

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
)

// Permission is the access mode a token grants.
type Permission string

// Token permissions.
const (
	PermRead  Permission = "r"
	PermWrite Permission = "w"
)

// Errors returned by token verification and object access.
var (
	ErrTokenInvalid = errors.New("store: token signature invalid")
	ErrTokenExpired = errors.New("store: token expired")
	ErrTokenScope   = errors.New("store: token does not cover this path or permission")
	ErrNotFound     = errors.New("store: object not found")
)

// Path helpers encode the backend's folder conventions.

// EventPath returns the event-file path for one run of a job.
func EventPath(jobID string, seq int) string {
	return path.Join("events", jobID, fmt.Sprintf("run-%06d.jsonl", seq))
}

// EventSeq returns the run sequence number an EventPath path ends in; ok is
// false for a path that is not an event file.
func EventSeq(p string) (seq int, ok bool) {
	name := path.Base(p)
	if !strings.HasPrefix(name, "run-") || !strings.HasSuffix(name, ".jsonl") {
		return 0, false
	}
	seq, err := strconv.Atoi(name[len("run-") : len(name)-len(".jsonl")])
	return seq, err == nil && seq >= 0
}

// ArtifactPath returns the shared folder path for an artifact-scoped object.
func ArtifactPath(artifactID, name string) string {
	return path.Join("artifacts", artifactID, name)
}

// ModelPath returns the model-blob path for a user's query signature.
func ModelPath(user, signature string) string {
	return path.Join("models", user, signature+".model")
}

// AppCachePath is the singleton app_cache object path.
const AppCachePath = "appcache/app_cache.json"

// token is the wire format of a signed access grant.
type token struct {
	// Prefix is the path prefix the token covers.
	Prefix string `json:"p"`
	// Perm is the granted permission.
	Perm Permission `json:"m"`
	// Expires is the Unix-nano expiry.
	Expires int64 `json:"e"`
	// Sig is the HMAC-SHA256 over "prefix|perm|expires".
	Sig []byte `json:"s"`
}

// Store is an in-memory object store with token-gated access. All methods
// are safe for concurrent use. The clock is injectable for tests.
type Store struct {
	secret []byte
	now    func() time.Time

	mu sync.RWMutex
	// sorted and recent are the one index: every live object is an entry in
	// exactly one of them, and both are ordered by key. A lookup is a binary
	// search of each; List, the retention sweep and export walk a key range of
	// both in order. A new key is inserted into the small recent run (a
	// bounded memmove), and a full run is merged into sorted with one linear
	// copy, so an insert costs O(log n) plus an amortized O(n/recentMergeAt)
	// — what keeps bulk ingest that Lists once per inserted key out of
	// quadratic work — and an object costs its entry and nothing else.
	sorted []entry
	recent []entry
}

// recentMergeAt bounds the recent run: reaching it merges the run into
// sorted.
const recentMergeAt = 512

// entry is one stored object, 48 bytes beside its key and payload.
type entry struct {
	key     string
	data    []byte
	created int64 // Unix nanoseconds
}

// search returns the position of key in es, or the position it would be
// inserted at, and whether it is there. Every read starts here; written out,
// it is a fifth faster at 200k keys than slices.BinarySearchFunc over
// strings.Compare.
func search(es []entry, key string) (int, bool) {
	lo, hi := 0, len(es)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); es[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(es) && es[lo].key == key
}

// prefixRange returns the run of es whose keys start with prefix.
func prefixRange(es []entry, prefix string) []entry {
	lo, _ := search(es, prefix)
	hi := lo
	for hi < len(es) && strings.HasPrefix(es[hi].key, prefix) {
		hi++
	}
	return es[lo:hi]
}

// findLocked returns the entry stored under key, or nil.
func (s *Store) findLocked(key string) *entry {
	if i, ok := search(s.sorted, key); ok {
		return &s.sorted[i]
	}
	if i, ok := search(s.recent, key); ok {
		return &s.recent[i]
	}
	return nil
}

// inOrder calls fn on every entry of two key-ordered runs, in key order.
func inOrder(a, b []entry, fn func(e *entry)) {
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || (len(a) > 0 && a[0].key < b[0].key) {
			fn(&a[0])
			a = a[1:]
		} else {
			fn(&b[0])
			b = b[1:]
		}
	}
}

// New returns a store signing tokens with the given secret.
func New(secret []byte) *Store {
	return &Store{
		secret: append([]byte(nil), secret...),
		now:    resilience.RealClock{}.Now,
	}
}

// SetClock overrides the store's clock (tests and simulations).
func (s *Store) SetClock(now func() time.Time) { s.now = now }

func (s *Store) sign(prefix string, perm Permission, expires int64) []byte {
	mac := hmac.New(sha256.New, s.secret)
	fmt.Fprintf(mac, "%s|%s|%d", prefix, perm, expires)
	return mac.Sum(nil)
}

// Sign issues a token granting perm on every path under prefix until ttl
// elapses — the analogue of generating a SAS URL.
func (s *Store) Sign(prefix string, perm Permission, ttl time.Duration) string {
	exp := s.now().Add(ttl).UnixNano()
	t := token{Prefix: prefix, Perm: perm, Expires: exp, Sig: s.sign(prefix, perm, exp)}
	blob, _ := json.Marshal(t) // marshal of this struct cannot fail
	return base64.URLEncoding.EncodeToString(blob)
}

// Verify checks that tok grants perm on p.
func (s *Store) Verify(tok, p string, perm Permission) error {
	raw, err := base64.URLEncoding.DecodeString(tok)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrTokenInvalid, err)
	}
	var t token
	if err := json.Unmarshal(raw, &t); err != nil {
		return fmt.Errorf("%w: %v", ErrTokenInvalid, err)
	}
	if !hmac.Equal(t.Sig, s.sign(t.Prefix, t.Perm, t.Expires)) {
		return ErrTokenInvalid
	}
	if s.now().UnixNano() > t.Expires {
		return ErrTokenExpired
	}
	if t.Perm != perm {
		return ErrTokenScope
	}
	if !strings.HasPrefix(p, t.Prefix) {
		return ErrTokenScope
	}
	return nil
}

// Get reads an object after verifying the read token.
func (s *Store) Get(tok, p string) ([]byte, error) {
	if err := s.Verify(tok, p, PermRead); err != nil {
		return nil, err
	}
	return s.GetInternal(p)
}

// putAt installs an object with an explicit creation time (Unix
// nanoseconds). The durability layer uses it so WAL replay reconstructs
// byte-identical state, retention timestamps included.
func (s *Store) putAt(p string, data []byte, created int64) {
	data = append([]byte(nil), data...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.findLocked(p); e != nil {
		e.data, e.created = data, created
		return
	}
	i, _ := search(s.recent, p)
	s.recent = slices.Insert(s.recent, i, entry{key: p, data: data, created: created})
	if len(s.recent) >= recentMergeAt {
		s.mergeLocked()
	}
}

// mergeLocked folds the recent run into sorted: one exact-size allocation
// and one linear copy, split at the recent keys' insertion points.
func (s *Store) mergeLocked() {
	merged := make([]entry, 0, len(s.sorted)+len(s.recent))
	rest := s.sorted
	for _, e := range s.recent {
		i, _ := search(rest, e.key)
		merged = append(append(merged, rest[:i]...), e)
		rest = rest[i:]
	}
	s.sorted = append(merged, rest...)
	// Drop the run's references: sorted owns the payloads now.
	clear(s.recent)
	s.recent = s.recent[:0]
}

// remove deletes the named objects; a path that is not stored is a no-op.
func (s *Store) remove(paths ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sorted = removeKeys(s.sorted, paths)
	s.recent = removeKeys(s.recent, paths)
}

// removeKeys closes the gaps the named keys leave in es with one pass of
// copies, however many keys are named.
func removeKeys(es []entry, keys []string) []entry {
	var hits []int
	for _, k := range keys {
		if i, ok := search(es, k); ok {
			hits = append(hits, i)
		}
	}
	if len(hits) == 0 {
		return es
	}
	slices.Sort(hits)
	hits = slices.Compact(hits) // a key may be named twice
	w := hits[0]
	for n, i := range hits {
		end := len(es)
		if n+1 < len(hits) {
			end = hits[n+1]
		}
		w += copy(es[w:], es[i+1:end])
	}
	clear(es[w:])
	return es[:w]
}

// GetInternal reads without a token; for backend-internal readers.
func (s *Store) GetInternal(p string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.findLocked(p)
	if e == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	return append([]byte(nil), e.data...), nil
}

// Entry is one object write: the unit of Commit, and the public shape of a
// snapshot entry the fleet layer ships and absorbs across nodes.
type Entry struct {
	// Path is the object path.
	Path string
	// Data is the object payload.
	Data []byte
	// Created is the object's creation timestamp; the zero value means "now".
	// Preserving it across replication and promote keeps retention behavior
	// identical on every replica.
	Created time.Time
}

// createdOr resolves the entry's creation time, in Unix nanoseconds, against
// the commit's clock.
func (e Entry) createdOr(now time.Time) int64 {
	if e.Created.IsZero() {
		return now.UnixNano()
	}
	return e.Created.UnixNano()
}

// BatchEntry is the name PutBatch callers know Entry by.
type BatchEntry = Entry

// checkEntries rejects a commit the WAL could not replay: every entry needs
// a path.
func checkEntries(entries []Entry) error {
	for i, e := range entries {
		if e.Path == "" {
			return fmt.Errorf("store: commit entry %d has an empty path", i)
		}
	}
	return nil
}

// Commit is the store's one write: a group of objects written without a
// token (only backend components hold the store directly, mirroring the
// admin-workspace trust boundary). The in-memory store has no log to carry
// ctx's trace into, so the group is applied entry by entry after the shape
// check; the durable store commits it behind a single WAL record.
func (s *Store) Commit(_ context.Context, entries []Entry) error {
	if err := checkEntries(entries); err != nil {
		return err
	}
	now := s.now()
	for _, e := range entries {
		s.putAt(e.Path, e.Data, e.createdOr(now))
	}
	return nil
}

// Put writes an object after verifying the write token.
func (s *Store) Put(tok, p string, data []byte) error {
	if err := s.Verify(tok, p, PermWrite); err != nil {
		return err
	}
	return s.Commit(context.Background(), []Entry{{Path: p, Data: data}})
}

// PutInternal is a one-entry Commit for callers with no use for the error
// (the in-memory store only refuses an empty path).
func (s *Store) PutInternal(p string, data []byte) {
	_ = s.Commit(context.Background(), []Entry{{Path: p, Data: data}})
}

// PutBatch is Commit without a context.
func (s *Store) PutBatch(entries []BatchEntry) error {
	return s.Commit(context.Background(), entries)
}

// List returns the paths under prefix, sorted.
func (s *Store) List(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, b := prefixRange(s.sorted, prefix), prefixRange(s.recent, prefix)
	if len(a)+len(b) == 0 {
		return nil
	}
	out := make([]string, 0, len(a)+len(b))
	inOrder(a, b, func(e *entry) { out = append(out, e.key) })
	return out
}

// Delete removes an object; deleting a missing object is a no-op.
func (s *Store) Delete(p string) { s.remove(p) }

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sorted) + len(s.recent)
}

// CleanupOlderThan removes event files older than the retention window and
// returns how many were deleted — the Storage Manager's GDPR cleanup. Only
// objects under "events/" are subject to retention; models and caches are
// derived artifacts.
func (s *Store) CleanupOlderThan(retention time.Duration) int {
	reaped := s.expiredEvents(retention)
	s.remove(reaped...)
	return len(reaped)
}

// expiredEvents returns, sorted, the event paths the retention sweep would
// reap right now: one range scan over "events/".
func (s *Store) expiredEvents(retention time.Duration) []string {
	cutoff := s.now().Add(-retention).UnixNano()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var reaped []string
	inOrder(prefixRange(s.sorted, "events/"), prefixRange(s.recent, "events/"), func(e *entry) {
		if e.created < cutoff {
			reaped = append(reaped, e.key)
		}
	})
	return reaped
}

// export returns a deep copy of the store's full state, in path order — the
// payload of a durability snapshot.
func (s *Store) export() []snapEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]snapEntry, 0, len(s.sorted)+len(s.recent))
	inOrder(s.sorted, s.recent, func(e *entry) {
		out = append(out, snapEntry{Path: e.key, Data: append([]byte(nil), e.data...), Created: e.created})
	})
	return out
}

// resetTo replaces the store's whole state with a decoded snapshot's entries,
// taking ownership of their payloads. A snapshot is written in path order;
// the image may still have come from a peer, so the order the index rests on
// is established here, a later duplicate winning as a replayed put would.
func (s *Store) resetTo(entries []snapEntry) {
	es := make([]entry, len(entries))
	for i, e := range entries {
		es[i] = entry{key: e.Path, data: e.Data, created: e.Created}
	}
	slices.SortStableFunc(es, func(a, b entry) int { return strings.Compare(a.key, b.key) })
	w := 0
	for i, e := range es {
		if i+1 < len(es) && es[i+1].key == e.key {
			continue
		}
		es[w] = e
		w++
	}
	clear(es[w:])
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sorted, s.recent = es[:w], nil
}
