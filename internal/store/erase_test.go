package store

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
)

// filesHolding returns every file under dir whose bytes contain b.
func filesHolding(t *testing.T, dir string, b []byte) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		if err == nil && bytes.Contains(data, b) {
			out = append(out, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSweepErasesOwnerAndFollower: the retention sweep compacts the store
// that logs it and every follower that applies its record, so the reaped
// payload leaves both directories in that operation, with no Compact call.
func TestSweepErasesOwnerAndFollower(t *testing.T) {
	t.Parallel()
	clock := resilience.NewFakeClock(time.Unix(70000, 0))
	tap := &frameTap{}
	ownerDir, followerDir := t.TempDir(), t.TempDir()
	owner := mustOpen(t, ownerDir, DurableOptions{Clock: clock, OnAppend: tap.observe})
	follower := mustOpen(t, followerDir, DurableOptions{Clock: clock})
	defer owner.Close()
	defer follower.Close()

	payload := []byte("aged-event-payload-5c1e")
	if err := commit1(owner, EventPath("j", 0), payload); err != nil {
		t.Fatal(err)
	}
	owner.PutInternal(ModelPath("u", "s"), []byte("model"))
	clock.Advance(48 * time.Hour)
	owner.PutInternal(EventPath("j", 1), []byte("fresh"))
	if _, err := follower.ApplyReplicated(context.Background(), tap.batch(0, len(tap.frames))); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{ownerDir, followerDir} {
		if len(filesHolding(t, dir, payload)) == 0 {
			t.Fatalf("%s: the payload must be on disk before the sweep", dir)
		}
	}

	if n := owner.CleanupOlderThan(24 * time.Hour); n != 1 {
		t.Fatalf("sweep reaped %d event(s); want 1", n)
	}
	if _, err := follower.ApplyReplicated(context.Background(), tap.batch(0, len(tap.frames))); err != nil {
		t.Fatal(err)
	}
	wantExportsEqual(t, "after the sweep", owner, follower)
	for _, dir := range []string{ownerDir, followerDir} {
		if held := filesHolding(t, dir, payload); len(held) != 0 {
			t.Errorf("reaped payload still on disk in %v", held)
		}
	}
	if _, err := follower.GetInternal(EventPath("j", 1)); err != nil {
		t.Fatalf("the fresh event must survive the sweep: %v", err)
	}
}

// TestSweepErasesAfterCrashAtNextCommitOrClose: a crash inside the sweep's
// compaction leaves the reaped bytes on disk — before the rename in the WAL
// the sweep record extends, after it in the stale WAL records the new
// snapshot already covers. The reopened store erases them at its next
// commit, or at Close.
func TestSweepErasesAfterCrashAtNextCommitOrClose(t *testing.T) {
	t.Parallel()
	for _, point := range []CrashPoint{CrashPreRename, CrashPostRename} {
		for _, then := range []string{"commit", "close"} {
			t.Run(point.String()+"/"+then, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				clock := resilience.NewFakeClock(time.Unix(70000, 0))
				d := mustOpen(t, dir, DurableOptions{Clock: clock, Hooks: fireAt(point, 1)})
				payload := []byte("aged-event-payload-9d27")
				if err := commit1(d, EventPath("j", 0), payload); err != nil {
					t.Fatal(err)
				}
				clock.Advance(48 * time.Hour)
				if n := d.CleanupOlderThan(24 * time.Hour); n != 1 {
					t.Fatalf("sweep reaped %d event(s); want 1", n)
				}
				if err := d.Err(); !errors.Is(err, ErrCrashed) {
					t.Fatalf("the sweep's compaction never reached %s: Err() = %v", point, err)
				}
				d.abandon()

				re := mustOpen(t, dir, DurableOptions{Clock: clock})
				if len(filesHolding(t, dir, payload)) == 0 {
					t.Fatal("the crash must leave the reaped payload on disk")
				}
				if then == "commit" {
					if err := commit1(re, ModelPath("u", "s"), []byte("model")); err != nil {
						t.Fatal(err)
					}
					defer re.Close()
				} else if err := re.Close(); err != nil {
					t.Fatal(err)
				}
				if held := filesHolding(t, dir, payload); len(held) != 0 {
					t.Fatalf("reaped payload still on disk in %v after the %s", held, then)
				}
				if then == "commit" {
					if _, err := re.GetInternal(EventPath("j", 0)); !errors.Is(err, ErrNotFound) {
						t.Fatalf("reaped event readable after reopen: %v", err)
					}
				}
			})
		}
	}
}
