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
//
// Two stores share one ordered index (index.go). Store keeps payloads on
// the heap; DurableStore (durable.go) keeps them raw in its WAL and
// snapshot, which are one length-prefixed, CRC'd binary record format
// (wal.go, snapshot.go) that replication ships verbatim, and rewrites a
// data directory in the older JSON format once when it opens it
// (legacy.go).
package store

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"strconv"
	"strings"
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
	ix index[object]
}

// object is one in-memory object: its payload and its creation time (Unix
// nanoseconds).
type object struct {
	data    []byte
	created int64
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
	return hex.EncodeToString(blob)
}

// Verify checks that tok grants perm on p.
func (s *signer) Verify(tok, p string, perm Permission) error {
	raw, err := hex.DecodeString(tok)
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
	s.ix.putLocked(p, object{data: data, created: created})
}

// GetInternal reads without a token; for backend-internal readers.
func (s *Store) GetInternal(p string) ([]byte, error) {
	s.ix.mu.RLock()
	defer s.ix.mu.RUnlock()
	e := s.ix.findLocked(p)
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

// BatchEntry is the name DurableStore.PutBatch callers know Entry by.
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

// List returns the paths under prefix, sorted.
func (s *Store) List(prefix string) []string { return s.ix.list(prefix) }

// Delete removes an object; deleting a missing object is a no-op.
func (s *Store) Delete(p string) {
	s.ix.mu.Lock()
	defer s.ix.mu.Unlock()
	s.ix.removeLocked(p)
}

// Len returns the number of stored objects.
func (s *Store) Len() int { return s.ix.len() }

// Err is always nil: the in-memory store has no durability to lose, so it
// never refuses a commit. It mirrors DurableStore.Err.
func (s *Store) Err() error { return nil }

// CleanupOlderThan removes event files older than the retention window, with
// the signature index entries committed beside them, and returns how many
// event files were deleted — the Storage Manager's GDPR cleanup. Only
// objects under "events/" and "index/" are subject to retention; models and
// caches are derived artifacts.
func (s *Store) CleanupOlderThan(retention time.Duration) int {
	cutoff := s.now().Add(-retention).UnixNano()
	s.ix.mu.Lock()
	defer s.ix.mu.Unlock()
	reaped, events := s.ix.expiredLocked(cutoff, func(o *object) int64 { return o.created })
	s.ix.removeLocked(reaped...)
	return events
}
