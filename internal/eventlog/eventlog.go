// Package eventlog implements a Spark-event-log-shaped codec and the
// Embedding ETL of Figure 7, the step that turns raw Spark listener event
// files into training rows by extracting plans, configurations, input sizes
// and durations. Simulated runs are serialized as JSON listener events
// (SQLExecutionStart with the physical plan and effective configuration,
// sampled TaskEnd events, SQLExecutionEnd with the duration) through
// encoding/json, the one codec. Digest runs the ETL in the process that
// holds the log, so the backend only ever receives digested traces, each
// keyed by its plan's signature and routable to that signature's owner.
package eventlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/rockhopper-db/rockhopper/internal/embedding"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
)

// Listener event names, mirroring Spark's SparkListener event vocabulary.
const (
	EventExecutionStart = "SparkListenerSQLExecutionStart"
	EventTaskEnd        = "SparkListenerTaskEnd"
	EventExecutionEnd   = "SparkListenerSQLExecutionEnd"
)

// Event is one listener event. Fields are a union across event kinds;
// unused fields are omitted from the JSON, as in Spark's own logs.
type Event struct {
	Event       string `json:"Event"`
	ExecutionID int64  `json:"executionId"`
	Timestamp   int64  `json:"timestamp"`

	// ExecutionStart fields.
	QueryID    string             `json:"queryId,omitempty"`
	Plan       *sparksim.Plan     `json:"physicalPlan,omitempty"`
	SparkConf  map[string]float64 `json:"sparkConf,omitempty"`
	InputBytes float64            `json:"inputBytes,omitempty"`

	// TaskEnd fields.
	StageLabel string  `json:"stage,omitempty"`
	TaskMs     float64 `json:"taskDurationMs,omitempty"`

	// ExecutionEnd fields.
	DurationMs float64 `json:"durationMs,omitempty"`
}

// WriteRun serializes one simulated execution as an event stream: start
// (plan + effective Spark conf + input size), up to maxTasks sampled task
// events, and the end event with the observed duration. Each event is one
// encoding/json line; the whole run is rendered into a buffer and written
// with a single Write call.
func WriteRun(w io.Writer, execID int64, space *sparksim.Space, q *sparksim.Query,
	o sparksim.Observation, stages []sparksim.StageStat, maxTasks int) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	conf := make(map[string]float64, space.Dim())
	for i, p := range space.Params {
		conf[p.Name] = o.Config[i]
	}
	if err := enc.Encode(Event{
		Event:       EventExecutionStart,
		ExecutionID: execID,
		Timestamp:   int64(o.Iteration),
		QueryID:     q.ID,
		Plan:        q.Plan,
		SparkConf:   conf,
		InputBytes:  o.DataSize,
	}); err != nil {
		return fmt.Errorf("eventlog: write start: %w", err)
	}
	n := 0
	for _, st := range stages {
		if n >= maxTasks {
			break
		}
		if st.Tasks == 0 {
			continue
		}
		if err := enc.Encode(Event{
			Event:       EventTaskEnd,
			ExecutionID: execID,
			StageLabel:  st.Label,
			TaskMs:      st.TimeMs / float64(st.Tasks),
		}); err != nil {
			return fmt.Errorf("eventlog: write task: %w", err)
		}
		n++
	}
	if err := enc.Encode(Event{
		Event:       EventExecutionEnd,
		ExecutionID: execID,
		DurationMs:  o.Time,
	}); err != nil {
		return fmt.Errorf("eventlog: write end: %w", err)
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("eventlog: write run: %w", err)
	}
	return nil
}

// Run is one reassembled execution.
type Run struct {
	ExecutionID int64
	QueryID     string
	Plan        *sparksim.Plan
	Config      sparksim.Config
	InputBytes  float64
	DurationMs  float64
	TaskEvents  int
}

// Parse reassembles executions from an event stream. Executions missing
// either their start or end event are dropped (truncated logs are routine
// in production); an execution whose plan fails validation is an error.
func Parse(r io.Reader, space *sparksim.Space) ([]Run, error) {
	dec := json.NewDecoder(r)
	open := map[int64]*Run{}
	var done []Run
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("eventlog: parse: %w", err)
		}
		switch ev.Event {
		case EventExecutionStart:
			if ev.Plan == nil {
				return nil, fmt.Errorf("eventlog: execution %d start without plan", ev.ExecutionID)
			}
			if err := ev.Plan.Validate(); err != nil {
				return nil, fmt.Errorf("eventlog: execution %d: %w", ev.ExecutionID, err)
			}
			cfg := space.Default()
			for i, p := range space.Params {
				if v, ok := ev.SparkConf[p.Name]; ok {
					cfg[i] = p.Snap(v)
				}
			}
			open[ev.ExecutionID] = &Run{
				ExecutionID: ev.ExecutionID,
				QueryID:     ev.QueryID,
				Plan:        ev.Plan,
				Config:      cfg,
				InputBytes:  ev.InputBytes,
			}
		case EventTaskEnd:
			if run, ok := open[ev.ExecutionID]; ok {
				run.TaskEvents++
			}
		case EventExecutionEnd:
			run, ok := open[ev.ExecutionID]
			if !ok {
				continue // end without start: truncated log
			}
			run.DurationMs = ev.DurationMs
			done = append(done, *run)
			delete(open, ev.ExecutionID)
		}
	}
	return done, nil
}

// ETL converts parsed runs into surrogate training traces, computing each
// plan's workload embedding — the Embedding ETL streaming job.
func ETL(runs []Run, embedder *embedding.Embedder) []flighting.Trace {
	if embedder == nil {
		embedder = defaultETLEmbedder
	}
	out := make([]flighting.Trace, 0, len(runs))
	for _, run := range runs {
		if run.DurationMs <= 0 {
			continue
		}
		out = append(out, flighting.Trace{
			QueryID:   run.QueryID,
			Embedding: embedder.Embed(run.Plan),
			Config:    run.Config,
			DataSize:  run.InputBytes,
			TimeMs:    run.DurationMs,
		})
	}
	return out
}

// Digest is the Embedding ETL run where the log is read: it parses a raw
// event log, embeds each complete execution's plan with the default
// embedder, and keys every trace by its plan's signature, ready for
// PostEventBatch. Runs without a duration are dropped, as ETL drops them; a
// log with no complete execution is an error.
func Digest(log []byte, space *sparksim.Space) ([]flighting.Trace, error) {
	runs, err := Parse(bytes.NewReader(log), space)
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, errors.New("eventlog: log contains no complete executions")
	}
	for i := range runs {
		runs[i].QueryID = sparksim.Signature(runs[i].Plan)
	}
	return ETL(runs, nil), nil
}

// defaultETLEmbedder is the embedder ETL uses when the caller passes none.
var defaultETLEmbedder = embedding.NewVirtual()
