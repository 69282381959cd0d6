package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
)

// gatherSpans reads one trace's fragments from every node's /api/trace —
// exactly what rockmon -trace does.
func gatherSpans(t *testing.T, f *testFleet, traceID string) []telemetry.Span {
	t.Helper()
	var all []telemetry.Span
	for id, base := range f.peers {
		resp, err := http.Get(base + "/api/trace?trace=" + traceID)
		if err != nil {
			t.Fatalf("gather from %s: %v", id, err)
		}
		var spans []telemetry.Span
		err = json.NewDecoder(resp.Body).Decode(&spans)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("gather from %s: %v", id, err)
		}
		all = append(all, spans...)
	}
	return all
}

// TestFleetTracedIngestSingleConnectedTree is the cross-node causal drill:
// one traced, replicated batch ingest must assemble into a single connected
// tree spanning all three nodes, rooted at the client send, with the WAL
// append + fsync, the per-follower replication waits and ships, the
// follower-side applies, and the retrain all present as child spans
// carrying durations. Orphans are a propagation bug and fail the drill.
func TestFleetTracedIngestSingleConnectedTree(t *testing.T) {
	// Real fsyncs: NoSync elides the wal_fsync spans the drill asserts on.
	f := newTestFleet(t, []string{"a", "b", "c"}, 3, func(id string, opts *NodeOptions) {
		opts.NoSync = false
	})
	sig := sigOwnedBy(t, f, "a", nil)

	// One replicated batch ingest, traced from outside the fleet (the
	// client-send root is unrecorded, so assembly synthesizes it).
	sc := telemetry.SpanContext{TraceID: 0x5ca1ab1e, SpanID: 0xd011}
	var buf bytes.Buffer
	space := sparksim.QuerySpace()
	traces := make([]flighting.Trace, 8)
	for i := range traces {
		traces[i] = flighting.Trace{QueryID: sig, Config: space.Default(), DataSize: 1, TimeMs: 100 + float64(i)}
	}
	if err := flighting.WriteTraces(&buf, traces); err != nil {
		t.Fatal(err)
	}
	n := f.nodes["a"]
	tok := n.Store().Sign("events/", store.PermWrite, n.Backend().TokenTTL)
	url := fmt.Sprintf("%s/api/events?user=u&signature=%s&job_id=j1", f.peers["a"], sig)
	req, err := http.NewRequest(http.MethodPost, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(backend.SASTokenHeader, tok)
	req.Header.Set(telemetry.TraceHeader, sc.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("traced ingest status = %d", resp.StatusCode)
	}
	n.Backend().Flush() // drain the retrain the ingest queued

	// The follower-side ship spans finish asynchronously just after the ack
	// releases the request; poll the gather briefly rather than sleeping.
	required := []string{
		"events", "wal_append", "wal_fsync", "retrain",
		"replication_wait:", "replicate:", "fleet_replicate", "replica_apply",
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := gatherSpans(t, f, sc.TraceHex())
		tree := telemetry.AssembleTrace(sc.TraceHex(), spans)
		missing := missingSpans(tree, required)
		if tree.Connected() && len(missing) == 0 {
			verifyTree(t, tree)
			return
		}
		if time.Now().After(deadline) {
			var render strings.Builder
			telemetry.RenderTree(&render, tree)
			t.Fatalf("drill did not converge: connected=%v orphans=%d missing=%v\n%s",
				tree.Connected(), len(tree.Orphans), missing, render.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// missingSpans lists required span names (exact, or prefix for per-peer
// names ending in ':') absent from the tree.
func missingSpans(tree telemetry.TraceTree, required []string) []string {
	var missing []string
	spans := tree.Spans()
	for _, want := range required {
		found := false
		for _, sp := range spans {
			if sp.Name == want || (strings.HasSuffix(want, ":") && strings.HasPrefix(sp.Name, want)) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, want)
		}
	}
	return missing
}

// verifyTree asserts the structural acceptance criteria on a converged
// drill tree.
func verifyTree(t *testing.T, tree telemetry.TraceTree) {
	t.Helper()
	if !tree.Synthesized {
		t.Error("client send was outside the fleet: the root must be synthesized")
	}
	if got := tree.Roots[0].Span.Name; got != "client_send" {
		t.Errorf("root = %q, want client_send", got)
	}
	nodes := make(map[string]bool)
	applyNodes := make(map[string]bool)
	for _, sp := range tree.Spans() {
		if sp.Node != "" {
			nodes[sp.Node] = true
		}
		if sp.Status == "remote" {
			continue // the synthesized root has no recorded timing
		}
		if sp.DurationMS < 0 {
			t.Errorf("span %s has negative duration %v", sp.Name, sp.DurationMS)
		}
		if sp.Status == "" {
			t.Errorf("span %s finished without a status", sp.Name)
		}
		if sp.Name == "replica_apply" {
			applyNodes[sp.Node] = true
		}
	}
	if len(nodes) != 3 {
		t.Errorf("tree spans %d nodes %v, want all 3", len(nodes), nodes)
	}
	// /api/events commits two records (event file, index entry); whether a
	// follower applies them in one shipment or two is the replicator's race,
	// so count the followers that applied, not the applies.
	if len(applyNodes) != 2 {
		t.Errorf("replica_apply spans on %d node(s) %v, want both followers", len(applyNodes), applyNodes)
	}
}
