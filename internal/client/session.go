package client

import (
	"context"
	"fmt"

	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/core"
	"github.com/rockhopper-db/rockhopper/internal/embedding"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/monitor"
	"github.com/rockhopper-db/rockhopper/internal/sparksim"
	"github.com/rockhopper-db/rockhopper/internal/stats"
)

// Session is the complete client-side tuning loop for one recurrent query
// signature inside one Spark application: it combines local Centroid
// Learning state, remote model-guided candidate selection, the monitoring
// dashboard, and event shipping to the backend — everything the Autotune
// Client does between job submission and completion (Figure 7).
type Session struct {
	Client    *Client
	Space     *sparksim.Space
	User      string
	JobID     string
	Signature string

	learner *core.CentroidLearner
	// dash reads the runs from the learner's history and keeps only their
	// stage metrics: a session keeps each run once.
	dash    *monitor.Dashboard
	embed   []float64
	tripped bool
}

// NewSession opens a tuning session. plan supplies the query signature and
// workload embedding; seed derives the session's random streams.
func NewSession(cli *Client, space *sparksim.Space, user, jobID string, plan *sparksim.Plan, seed uint64) (*Session, error) {
	if cli == nil || space == nil || plan == nil {
		return nil, fmt.Errorf("client: session requires a client, space, and plan")
	}
	if user == "" || jobID == "" {
		return nil, fmt.Errorf("client: session requires user and job id")
	}
	sig := sparksim.Signature(plan)
	root := stats.NewRNG(seed)
	sel := &RemoteSelector{
		Client: cli, Space: space, User: user, Signature: sig,
		Fallback: core.NewSurrogateSelector(space, nil, nil, root.Split()),
	}
	learner := core.New(space, sel, root.Split())
	return &Session{
		Client:    cli,
		Space:     space,
		User:      user,
		JobID:     jobID,
		Signature: sig,
		learner:   learner,
		dash:      monitor.Over(space, sig, learner.History()),
		embed:     embedding.NewVirtual().Embed(plan),
	}, nil
}

// Recommend returns the configuration for the next run of this query —
// the Autotune Config Inference step "before the physical planning stage".
func (s *Session) Recommend(expectedInputBytes float64) sparksim.Config {
	return s.learner.Propose(s.learner.Iterations(), expectedInputBytes)
}

// Complete reports one execution: it updates local tuning state, records
// the dashboard metrics, and ships the event file to the backend so the
// streaming Model Updater can retrain. ctx bounds the event upload; the
// local state updates always happen.
func (s *Session) Complete(ctx context.Context, o sparksim.Observation, stages []sparksim.StageStat) error {
	o.Iteration = s.learner.Iterations()
	s.learner.Observe(o)
	s.dash.RecordStages(stages)
	if !s.tripped && s.learner.Disabled() {
		s.tripped = true
		s.Client.tele().trips.With(s.tripCause(ctx)).Inc()
	}
	return s.Client.PostEvents(ctx, s.User, s.Signature, s.JobID, []flighting.Trace{{
		QueryID:   s.Signature,
		Embedding: s.embed,
		Config:    o.Config,
		DataSize:  o.DataSize,
		TimeMs:    o.Time,
	}})
}

// tripCause attributes a guardrail revert, asked once on the revert edge:
// "drift" when the backend's detector for the signature has tripped (the
// model had drifted off the observed costs: the model's fault),
// "stationary" when it has not (workload variance the tuner mis-stepped
// into), and "unknown" when the backend cannot say.
func (s *Session) tripCause(ctx context.Context) string {
	st, err := s.Client.Explain(ctx, s.User, s.Signature)
	switch {
	case err != nil:
		return "unknown"
	case st.Drifting:
		return "drift"
	default:
		return "stationary"
	}
}

// Disabled reports whether the guardrail reverted this query to defaults.
func (s *Session) Disabled() bool { return s.learner.Disabled() }

// Iterations returns the number of completed runs.
func (s *Session) Iterations() int { return s.learner.Iterations() }

// Dashboard exposes the session's monitoring state: the learner's runs with
// their stage metrics.
func (s *Session) Dashboard() *monitor.Dashboard { return s.dash }

// History returns the query's observation log (for app-level optimization).
func (s *Session) History() []sparksim.Observation {
	return s.learner.Snapshot().History
}

// QueryHistory packages the session state for the backend's App Cache
// Generator.
func (s *Session) QueryHistory() backend.QueryHistory {
	return backend.QueryHistory{
		ID:           s.Signature,
		Centroid:     s.learner.Centroid(),
		Observations: s.History(),
	}
}

// FinishApp runs when the surrounding Spark application completes: it asks
// the backend to recompute the artifact's app-level configuration from this
// session's (and its sibling sessions') query histories. ctx bounds the
// backend call.
func FinishApp(ctx context.Context, cli *Client, artifactID string, current sparksim.Config, sessions ...*Session) error {
	if len(sessions) == 0 {
		return fmt.Errorf("client: FinishApp requires at least one session")
	}
	req := backend.AppCacheRequest{ArtifactID: artifactID, Current: current.Clone()}
	for _, s := range sessions {
		req.Queries = append(req.Queries, s.QueryHistory())
	}
	_, err := cli.ComputeAppCache(ctx, req)
	return err
}
