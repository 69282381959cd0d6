package client

import (
	"bytes"
	"context"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/store"
)

// queryHostile are identifiers that change meaning when spliced into a query
// string unescaped: '+' decodes to a space, '#' starts a fragment, '&'
// splits the parameter, and '%' starts an escape.
var queryHostile = []string{"etl+nightly", "etl#1", "a&b", "50%off", "x y=z"}

// TestQueryStringsEscaped: every request the client builds carries its
// identifiers through the query string intact, so each call succeeds and
// lands under the exact key it names.
func TestQueryStringsEscaped(t *testing.T) {
	space := sparksim.QuerySpace()
	ctx := context.Background()
	for _, id := range queryHostile {
		t.Run(id, func(t *testing.T) {
			srv, c := newStack(t, space)
			traces := batchTraces(t, space, []string{"sigA"}, 2)
			if _, err := c.PostEventBatch(ctx, "u", id, traces); err != nil {
				t.Fatalf("PostEventBatch(job %q): %v", id, err)
			}
			if err := c.PostEvents(ctx, "u", id, id, traces); err != nil {
				t.Fatalf("PostEvents(signature and job %q): %v", id, err)
			}
			for seq := 0; seq < 2; seq++ {
				if _, err := srv.Store.GetInternal(store.EventPath(id, seq)); err != nil {
					t.Errorf("event file %s: %v", store.EventPath(id, seq), err)
				}
			}
			if idx := srv.Store.List("index/u/" + id + "/"); len(idx) != 1 {
				t.Errorf("index entries under signature %q = %v, want 1", id, idx)
			}

			p := "artifacts/" + id + "/obj"
			data := []byte("payload " + id)
			if err := srv.Store.Commit(ctx, []store.Entry{{Path: p, Data: data}}); err != nil {
				t.Fatalf("commit %q: %v", p, err)
			}
			if got, err := c.GetObject(ctx, p); err != nil || !bytes.Equal(got, data) {
				t.Errorf("GetObject(%q) = %q, %v; want %q", p, got, err, data)
			}

			srv.Cache.Put(id, space.Default(), 1)
			if e, ok, err := c.FetchAppCache(ctx, id); err != nil || !ok || e.ArtifactID != id {
				t.Errorf("FetchAppCache(%q) = %+v, %v, %v; want the cached entry", id, e, ok, err)
			}
			srv.Flush()
		})
	}
}
