// Package eventlog implements a Spark-event-log-shaped codec and the
// Embedding ETL of Figure 7. The production backend does not receive
// digested training rows — it receives raw Spark listener event files and
// runs a streaming ETL ("the Embedding ETL, which processes Spark job
// logs") to extract plans, configurations, input sizes, and durations.
// This package reproduces that boundary: simulated runs are serialized as
// JSON listener events (SQLExecutionStart with the physical plan and
// effective configuration, sampled TaskEnd events, SQLExecutionEnd with the
// duration), and the ETL parses event streams back into training traces.
package eventlog

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

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

// encBufPool recycles WriteRun's encode buffers; under ingest load a run is
// rendered into one pooled buffer and flushed with a single Write.
var encBufPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteRun serializes one simulated execution as an event stream: start
// (plan + effective Spark conf + input size), up to maxTasks sampled task
// events, and the end event with the observed duration. The whole run is
// rendered into a pooled buffer through the zero-allocation AppendEvent
// codec and written with one Write call; the bytes are identical to the
// former json.Encoder output.
func WriteRun(w io.Writer, execID int64, space *sparksim.Space, q *sparksim.Query,
	o sparksim.Observation, stages []sparksim.StageStat, maxTasks int) error {
	bp := encBufPool.Get().(*[]byte)
	buf, err := appendRun((*bp)[:0], execID, space, q, o, stages, maxTasks)
	if err != nil {
		encBufPool.Put(bp)
		return err
	}
	_, werr := w.Write(buf)
	*bp = buf
	encBufPool.Put(bp)
	if werr != nil {
		return fmt.Errorf("eventlog: write run: %w", werr)
	}
	return nil
}

// appendRun renders the full event stream of one execution into dst.
func appendRun(dst []byte, execID int64, space *sparksim.Space, q *sparksim.Query,
	o sparksim.Observation, stages []sparksim.StageStat, maxTasks int) ([]byte, error) {
	conf := make(map[string]float64, space.Dim())
	for i, p := range space.Params {
		conf[p.Name] = o.Config[i]
	}
	start := Event{
		Event:       EventExecutionStart,
		ExecutionID: execID,
		Timestamp:   int64(o.Iteration),
		QueryID:     q.ID,
		Plan:        q.Plan,
		SparkConf:   conf,
		InputBytes:  o.DataSize,
	}
	var err error
	if dst, err = AppendEvent(dst, &start); err != nil {
		return dst, fmt.Errorf("eventlog: write start: %w", err)
	}
	dst = append(dst, '\n')
	n := 0
	ev := Event{Event: EventTaskEnd, ExecutionID: execID}
	for _, st := range stages {
		if n >= maxTasks {
			break
		}
		if st.Tasks == 0 {
			continue
		}
		ev.StageLabel = st.Label
		ev.TaskMs = st.TimeMs / float64(st.Tasks)
		if dst, err = AppendEvent(dst, &ev); err != nil {
			return dst, fmt.Errorf("eventlog: write task: %w", err)
		}
		dst = append(dst, '\n')
		n++
	}
	end := Event{
		Event:       EventExecutionEnd,
		ExecutionID: execID,
		DurationMs:  o.Time,
	}
	if dst, err = AppendEvent(dst, &end); err != nil {
		return dst, fmt.Errorf("eventlog: write end: %w", err)
	}
	return append(dst, '\n'), nil
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

// defaultETLEmbedder is the embedder ETL uses when the caller passes none.
var defaultETLEmbedder = embedding.NewVirtual()
