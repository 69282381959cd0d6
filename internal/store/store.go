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

// signer issues and checks the stateless access tokens; both stores embed
// it.
type signer struct {
	secret []byte
	now    func() time.Time
}

// Store is an in-memory object store with token-gated access. All methods
// are safe for concurrent use. The clock is injectable for tests.
type Store struct {
	signer
	ix index[[]byte]
}

// index is the one ordered index both stores keep, generic over what an
// entry holds beside its key and creation time: the in-memory Store keeps
// the payload itself, the durable store a 16-byte locator of the payload's
// bytes in its own files.
//
// sorted and recent are the index: every live object is an entry in exactly
// one of them, and both are ordered by key. A lookup is a binary search of
// each; List, the retention sweep and export walk a key range of both in
// order. A new key is inserted into the small recent run (a bounded
// memmove), and a full run is merged into sorted with one linear copy, so an
// insert costs O(log n) plus an amortized O(n/recentMergeAt) — what keeps
// bulk ingest that Lists once per inserted key out of quadratic work — and
// an object costs its entry and nothing else. Methods ending in Locked
// leave mu to the caller; the others take it themselves.
type index[V any] struct {
	mu     sync.RWMutex
	sorted []slot[V]
	recent []slot[V]
}

// recentMergeAt bounds the recent run: reaching it merges the run into
// sorted.
const recentMergeAt = 512

// slot is one index entry: 24 bytes beside its value (a []byte payload
// header in the Store, a locator in the durable store).
type slot[V any] struct {
	key     string
	created int64 // Unix nanoseconds
	val     V
}

// search returns the position of key in es, or the position it would be
// inserted at, and whether it is there. Every read starts here; written out,
// it is a fifth faster at 200k keys than slices.BinarySearchFunc over
// strings.Compare.
func search[V any](es []slot[V], key string) (int, bool) {
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
func prefixRange[V any](es []slot[V], prefix string) []slot[V] {
	lo, _ := search(es, prefix)
	hi := lo
	for hi < len(es) && strings.HasPrefix(es[hi].key, prefix) {
		hi++
	}
	return es[lo:hi]
}

// inOrder calls fn on every entry of two key-ordered runs, in key order.
func inOrder[V any](a, b []slot[V], fn func(e *slot[V])) {
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

// findLocked returns the entry stored under key, or nil.
func (x *index[V]) findLocked(key string) *slot[V] {
	if i, ok := search(x.sorted, key); ok {
		return &x.sorted[i]
	}
	if i, ok := search(x.recent, key); ok {
		return &x.recent[i]
	}
	return nil
}

// putLocked installs or overwrites the entry under key.
func (x *index[V]) putLocked(key string, val V, created int64) {
	if e := x.findLocked(key); e != nil {
		e.val, e.created = val, created
		return
	}
	i, _ := search(x.recent, key)
	x.recent = slices.Insert(x.recent, i, slot[V]{key: key, created: created, val: val})
	if len(x.recent) >= recentMergeAt {
		x.mergeLocked()
	}
}

// mergeLocked folds the recent run into sorted: one exact-size allocation
// and one linear copy, split at the recent keys' insertion points.
func (x *index[V]) mergeLocked() {
	merged := make([]slot[V], 0, len(x.sorted)+len(x.recent))
	rest := x.sorted
	for _, e := range x.recent {
		i, _ := search(rest, e.key)
		merged = append(append(merged, rest[:i]...), e)
		rest = rest[i:]
	}
	x.sorted = append(merged, rest...)
	// Drop the run's references: sorted owns the values now.
	clear(x.recent)
	x.recent = x.recent[:0]
}

// removeLocked deletes the named entries; a key that is not stored is a
// no-op.
func (x *index[V]) removeLocked(keys ...string) {
	x.sorted = removeKeys(x.sorted, keys)
	x.recent = removeKeys(x.recent, keys)
}

// removeKeys closes the gaps the named keys leave in es with one pass of
// copies, however many keys are named.
func removeKeys[V any](es []slot[V], keys []string) []slot[V] {
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

// eachLocked calls fn on every entry, in key order.
func (x *index[V]) eachLocked(fn func(e *slot[V])) { inOrder(x.sorted, x.recent, fn) }

// lenLocked returns the number of entries.
func (x *index[V]) lenLocked() int { return len(x.sorted) + len(x.recent) }

// list returns the keys under prefix, sorted.
func (x *index[V]) list(prefix string) []string {
	x.mu.RLock()
	defer x.mu.RUnlock()
	a, b := prefixRange(x.sorted, prefix), prefixRange(x.recent, prefix)
	if len(a)+len(b) == 0 {
		return nil
	}
	out := make([]string, 0, len(a)+len(b))
	inOrder(a, b, func(e *slot[V]) { out = append(out, e.key) })
	return out
}

// len returns the number of entries.
func (x *index[V]) len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.lenLocked()
}

// expiredEvents returns, sorted, the event paths created before cutoff (Unix
// nanoseconds): one range scan over "events/".
func (x *index[V]) expiredEvents(cutoff int64) []string {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var reaped []string
	inOrder(prefixRange(x.sorted, "events/"), prefixRange(x.recent, "events/"), func(e *slot[V]) {
		if e.created < cutoff {
			reaped = append(reaped, e.key)
		}
	})
	return reaped
}

// resetLocked replaces the whole index with es, taking ownership of the
// slice. The entries may come from a peer's image, so the order the index
// rests on is established here, a later duplicate winning as a replayed put
// would.
func (x *index[V]) resetLocked(es []slot[V]) {
	slices.SortStableFunc(es, func(a, b slot[V]) int { return strings.Compare(a.key, b.key) })
	w := 0
	for i, e := range es {
		if i+1 < len(es) && es[i+1].key == e.key {
			continue
		}
		es[w] = e
		w++
	}
	clear(es[w:])
	x.sorted, x.recent = es[:w], nil
}

// New returns a store signing tokens with the given secret.
func New(secret []byte) *Store {
	return &Store{signer: signer{
		secret: append([]byte(nil), secret...),
		now:    resilience.RealClock{}.Now,
	}}
}

// SetClock overrides the store's clock (tests and simulations).
func (s *Store) SetClock(now func() time.Time) { s.now = now }

func (s *signer) sign(prefix string, perm Permission, expires int64) []byte {
	mac := hmac.New(sha256.New, s.secret)
	fmt.Fprintf(mac, "%s|%s|%d", prefix, perm, expires)
	return mac.Sum(nil)
}

// Sign issues a token granting perm on every path under prefix until ttl
// elapses — the analogue of generating a SAS URL.
func (s *signer) Sign(prefix string, perm Permission, ttl time.Duration) string {
	exp := s.now().Add(ttl).UnixNano()
	t := token{Prefix: prefix, Perm: perm, Expires: exp, Sig: s.sign(prefix, perm, exp)}
	blob, _ := json.Marshal(t) // marshal of this struct cannot fail
	return base64.URLEncoding.EncodeToString(blob)
}

// Verify checks that tok grants perm on p.
func (s *signer) Verify(tok, p string, perm Permission) error {
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
// nanoseconds), keeping a copy of data.
func (s *Store) putAt(p string, data []byte, created int64) {
	data = append([]byte(nil), data...)
	s.ix.mu.Lock()
	defer s.ix.mu.Unlock()
	s.ix.putLocked(p, data, created)
}

// remove deletes the named objects; a path that is not stored is a no-op.
func (s *Store) remove(paths ...string) {
	s.ix.mu.Lock()
	defer s.ix.mu.Unlock()
	s.ix.removeLocked(paths...)
}

// GetInternal reads without a token; for backend-internal readers.
func (s *Store) GetInternal(p string) ([]byte, error) {
	s.ix.mu.RLock()
	defer s.ix.mu.RUnlock()
	e := s.ix.findLocked(p)
	if e == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	return append([]byte(nil), e.val...), nil
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
func (s *Store) List(prefix string) []string { return s.ix.list(prefix) }

// Delete removes an object; deleting a missing object is a no-op.
func (s *Store) Delete(p string) { s.remove(p) }

// Len returns the number of stored objects.
func (s *Store) Len() int { return s.ix.len() }

// CleanupOlderThan removes event files older than the retention window and
// returns how many were deleted — the Storage Manager's GDPR cleanup. Only
// objects under "events/" are subject to retention; models and caches are
// derived artifacts.
func (s *Store) CleanupOlderThan(retention time.Duration) int {
	reaped := s.ix.expiredEvents(s.now().Add(-retention).UnixNano())
	s.remove(reaped...)
	return len(reaped)
}
