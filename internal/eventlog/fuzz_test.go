package eventlog

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"github.com/rockhopper-db/rockhopper/internal/noise"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
	"github.com/rockhopper-db/rockhopper/internal/workloads"
)

// decodeEvents reads a whole stream of listener events; it is the inverse of
// encodeEvents for the round-trip invariant below.
func decodeEvents(data []byte) ([]Event, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var out []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}

func encodeEvents(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			t.Fatalf("encode event %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

// FuzzEventLogRoundTrip checks the codec's stability on arbitrary inputs, the
// logs a client digests without having written them: decoding never panics,
// and once a stream survives one decode→encode pass the representation is a
// fixed point (encode∘decode is the identity on it). Equality is asserted on
// bytes rather than reflect.DeepEqual because JSON legitimately collapses
// empty-but-non-nil maps/slices through omitempty. Parse (the ETL front end)
// must also agree on the scalar content of the original and canonicalized
// streams, and Digest must fail exactly when Parse fails or finds no run.
func FuzzEventLogRoundTrip(f *testing.F) {
	// Seed corpus: a genuine simulated event stream per suite...
	space := sparksim.QuerySpace()
	e := sparksim.NewEngine(space)
	r := stats.NewRNG(11)
	for i, suite := range []workloads.Suite{workloads.TPCDS, workloads.TPCH} {
		q := workloads.NewGenerator(3).Query(suite, 2)
		cfg := space.Random(r)
		o := e.Run(q, cfg, 1, r, noise.Low)
		o.Iteration = i
		stages, _ := e.Explain(q, cfg, 1)
		var buf bytes.Buffer
		if err := WriteRun(&buf, int64(i), space, q, o, stages, 4); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// ...plus malformed shapes the parser must reject or skip gracefully.
	f.Add([]byte(`{"Event":"SparkListenerSQLExecutionStart","executionId":1}`))
	f.Add([]byte(`{"Event":"SparkListenerSQLExecutionEnd","executionId":9,"durationMs":5}`))
	f.Add([]byte(`{"Event":"SparkListenerTaskEnd","executionId":-1,"stage":"s","taskDurationMs":1e-9}`))
	f.Add([]byte("{nope"))
	f.Add([]byte(`{"Event":"SparkListenerSQLExecutionStart","executionId":2,"sparkConf":{},"physicalPlan":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		runs, perr := Parse(bytes.NewReader(data), space)
		traces, derr := Digest(data, space)
		if wantErr := perr != nil || len(runs) == 0; (derr != nil) != wantErr {
			t.Fatalf("Digest error %v; Parse found %d runs, error %v", derr, len(runs), perr)
		}
		if len(traces) > len(runs) {
			t.Fatalf("Digest made %d traces from %d runs", len(traces), len(runs))
		}

		events, err := decodeEvents(data)
		if err != nil {
			// Undecodable input: Parse must reject it without panicking.
			if _, perr := Parse(bytes.NewReader(data), space); perr == nil {
				t.Fatalf("Parse accepted a stream the event codec rejects")
			}
			return
		}
		b1 := encodeEvents(t, events)
		events2, err := decodeEvents(b1)
		if err != nil {
			t.Fatalf("re-decode of canonical stream failed: %v", err)
		}
		b2 := encodeEvents(t, events2)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encode∘decode is not a fixed point:\n b1=%q\n b2=%q", b1, b2)
		}

		runs1, err1 := Parse(bytes.NewReader(data), space)
		runs2, err2 := Parse(bytes.NewReader(b1), space)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Parse verdict changed across canonicalization: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if len(runs1) != len(runs2) {
			t.Fatalf("run count changed: %d vs %d", len(runs1), len(runs2))
		}
		for i := range runs1 {
			a, b := runs1[i], runs2[i]
			if a.ExecutionID != b.ExecutionID || a.QueryID != b.QueryID ||
				a.DurationMs != b.DurationMs || a.InputBytes != b.InputBytes ||
				a.TaskEvents != b.TaskEvents {
				t.Fatalf("run %d drifted: %+v vs %+v", i, a, b)
			}
			if len(a.Config) != len(b.Config) {
				t.Fatalf("run %d config length drifted", i)
			}
			for j := range a.Config {
				if a.Config[j] != b.Config[j] {
					t.Fatalf("run %d config[%d] drifted: %g vs %g", i, j, a.Config[j], b.Config[j])
				}
			}
		}
	})
}
