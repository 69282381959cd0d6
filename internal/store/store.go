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
	"sort"
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

	mu      sync.RWMutex
	objects map[string]object

	// keys and overflow index List. keys is a sorted snapshot of the key
	// set (it may retain recently deleted keys — the objects map stays the
	// source of truth and filters them out); overflow holds keys put since
	// the last merge. A List binary-searches keys for the prefix range and
	// scans only the bounded overflow, so it costs O(log n + matches)
	// amortized instead of a full map walk — the difference between linear
	// and quadratic total work for callers that List once per inserted key,
	// like the Model Updater retraining behind bulk ingest.
	keys     []string
	overflow []string
	// stale counts deletions not yet compacted out of keys; crossing the
	// merge threshold forces a compaction so List never scans a key slice
	// dominated by tombstones.
	stale int
}

// overflowMergeThreshold bounds the unsorted overflow a List must scan;
// reaching it merges the overflow into the sorted key snapshot.
const overflowMergeThreshold = 512

type object struct {
	data    []byte
	created time.Time
}

// New returns a store signing tokens with the given secret.
func New(secret []byte) *Store {
	return &Store{
		secret:  append([]byte(nil), secret...),
		now:     resilience.RealClock{}.Now,
		objects: make(map[string]object),
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

// putAt installs an object with an explicit creation time. The durability
// layer uses it so WAL replay reconstructs byte-identical state, retention
// timestamps included.
func (s *Store) putAt(p string, data []byte, created time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, exists := s.objects[p]
	s.objects[p] = object{data: append([]byte(nil), data...), created: created}
	if !exists {
		// Index after the insert: the merge filters through the objects
		// map, and must see the key it is about to fold in as live.
		s.overflow = append(s.overflow, p)
		if len(s.overflow) >= overflowMergeThreshold {
			s.mergeKeysLocked()
		}
	}
}

// mergeKeysLocked folds the overflow into the sorted key snapshot and drops
// tombstones, restoring List's O(log n + matches) bound.
func (s *Store) mergeKeysLocked() {
	sort.Strings(s.overflow)
	merged := make([]string, 0, len(s.keys)+len(s.overflow))
	i, j := 0, 0
	for i < len(s.keys) || j < len(s.overflow) {
		var k string
		switch {
		case i >= len(s.keys):
			k = s.overflow[j]
			j++
		case j >= len(s.overflow):
			k = s.keys[i]
			i++
		case s.keys[i] < s.overflow[j]:
			k = s.keys[i]
			i++
		case s.keys[i] > s.overflow[j]:
			k = s.overflow[j]
			j++
		default: // same key reinserted after a delete: emit once
			k = s.keys[i]
			i++
			j++
		}
		if len(merged) > 0 && merged[len(merged)-1] == k {
			continue // duplicate within the overflow (delete + re-put)
		}
		if _, live := s.objects[k]; live {
			merged = append(merged, k)
		}
	}
	s.keys = merged
	s.overflow = s.overflow[:0]
	s.stale = 0
}

// deleteLocked removes an object and compacts the key index once tombstones
// dominate it.
func (s *Store) deleteLocked(p string) {
	if _, ok := s.objects[p]; !ok {
		return
	}
	delete(s.objects, p)
	s.stale++
	if s.stale > len(s.keys)/2+overflowMergeThreshold {
		s.mergeKeysLocked()
	}
}

// GetInternal reads without a token; for backend-internal readers.
func (s *Store) GetInternal(p string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[p]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, p)
	}
	return append([]byte(nil), o.data...), nil
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

// createdOr resolves the entry's creation time against the commit's clock.
func (e Entry) createdOr(now time.Time) time.Time {
	if e.Created.IsZero() {
		return now
	}
	return e.Created
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

// List returns the paths under prefix, sorted. It reads the sorted key
// snapshot through a binary search plus the bounded overflow, never the
// whole object map.
func (s *Store) List(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo := sort.SearchStrings(s.keys, prefix)
	var out []string
	for i := lo; i < len(s.keys) && strings.HasPrefix(s.keys[i], prefix); i++ {
		if _, live := s.objects[s.keys[i]]; live {
			out = append(out, s.keys[i])
		}
	}
	if len(s.overflow) == 0 {
		return out
	}
	snap := len(out)
	for _, k := range s.overflow {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if _, live := s.objects[k]; !live {
			continue
		}
		// Skip keys already emitted from the snapshot range (a key lands in
		// the overflow again when it is deleted and re-put before a merge).
		if idx := sort.SearchStrings(s.keys, k); idx < len(s.keys) && s.keys[idx] == k {
			continue
		}
		out = append(out, k)
	}
	if len(out) > snap {
		sort.Strings(out[snap:])
		out = mergeSortedDedup(out[:snap], out[snap:])
	}
	return out
}

// mergeSortedDedup merges two sorted string slices, dropping duplicates.
func mergeSortedDedup(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var k string
		switch {
		case i >= len(a):
			k = b[j]
			j++
		case j >= len(b):
			k = a[i]
			i++
		case a[i] <= b[j]:
			k = a[i]
			i++
		default:
			k = b[j]
			j++
		}
		if len(out) == 0 || out[len(out)-1] != k {
			out = append(out, k)
		}
	}
	return out
}

// Delete removes an object; deleting a missing object is a no-op.
func (s *Store) Delete(p string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deleteLocked(p)
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// DefaultOrphanGrace is how long an event file may sit without an index
// entry before the retention sweep treats it as an orphan. /api/events
// commits the event file first and its index entry second; a backend crash
// between the two leaves the file invisible to the Model Updater forever.
// Every live ingest finishes well inside the request deadline, so an hour is
// conservatively past any in-flight write.
const DefaultOrphanGrace = time.Hour

// CleanupOlderThan removes event files older than the retention window and
// returns how many were deleted — the Storage Manager's GDPR cleanup. Only
// objects under "events/" are subject to retention; models and caches are
// derived artifacts. The sweep also reaps orphaned event files: those an
// interrupted /api/events ingest never indexed, older than
// DefaultOrphanGrace.
func (s *Store) CleanupOlderThan(retention time.Duration) int {
	reaped := s.expiredEvents(retention)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range reaped {
		s.deleteLocked(p)
	}
	return len(reaped)
}

// expiredEvents returns, sorted, the event paths the retention sweep would
// reap right now: event files older than retention, plus unindexed
// (orphaned) event files older than DefaultOrphanGrace.
func (s *Store) expiredEvents(retention time.Duration) []string {
	now := s.now()
	cutoff := now.Add(-retention)
	orphanCutoff := now.Add(-DefaultOrphanGrace)
	s.mu.RLock()
	defer s.mu.RUnlock()
	indexed := s.indexedEventsLocked()
	var reaped []string
	for p, o := range s.objects {
		if !strings.HasPrefix(p, "events/") {
			continue
		}
		if o.created.Before(cutoff) || (!indexed[p] && o.created.Before(orphanCutoff)) {
			reaped = append(reaped, p)
		}
	}
	sort.Strings(reaped)
	return reaped
}

// indexedEventsLocked reconstructs the event path referenced by every
// "index/<user>/<sig>/<jobID>-<seq>" entry. Like the backend's index
// parser, it strips exactly the <user> and <sig> segments (single path
// segments: ingest rejects anything else) — job IDs are unsanitized caller
// input and may themselves contain '/' — and splits the
// remainder on the LAST '-' because job IDs may contain dashes and
// sequence numbers outgrow their %06d padding.
func (s *Store) indexedEventsLocked() map[string]bool {
	out := make(map[string]bool)
	for p := range s.objects {
		rest, ok := strings.CutPrefix(p, "index/")
		if !ok {
			continue
		}
		user := strings.IndexByte(rest, '/')
		if user < 0 {
			continue
		}
		sig := strings.IndexByte(rest[user+1:], '/')
		if sig < 0 {
			continue
		}
		rest = rest[user+1+sig+1:]
		i := strings.LastIndexByte(rest, '-')
		if i <= 0 || i == len(rest)-1 {
			continue
		}
		seq, err := strconv.Atoi(rest[i+1:])
		if err != nil || seq < 0 {
			continue
		}
		out[EventPath(rest[:i], seq)] = true
	}
	return out
}

// export returns a deep copy of the store's full state, sorted by path —
// the payload of a durability snapshot.
func (s *Store) export() []snapEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]snapEntry, 0, len(s.objects))
	for p, o := range s.objects {
		out = append(out, snapEntry{
			Path:    p,
			Data:    append([]byte(nil), o.data...),
			Created: o.created.UnixNano(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
