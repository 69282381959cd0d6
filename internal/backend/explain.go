package backend

import (
	"math"
	"net/http"

	"github.com/rockhopper-db/rockhopper/internal/flighting"
	"github.com/rockhopper-db/rockhopper/internal/flightrec"
	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/monitor"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/telemetry"
	"github.com/rockhopper-db/rockhopper/internal/tuners"
)

// SignatureState is one signature's tuning state as of the last retrain
// pass this node ran for it, served by GET /api/explain. The pass fields
// (runs, rows, status) describe that pass; the model fields describe the
// last model a pass committed; the drift fields are the signature's
// Page-Hinkley detector.
type SignatureState struct {
	// Runs is the number of index entries the pass listed.
	Runs int `json:"runs"`
	// Rows is the number of training traces the pass read; it fits them
	// when there are at least 4.
	Rows int `json:"rows"`
	// Status is "ok", "skipped" (fewer than 4 traces) or "error".
	Status string `json:"status"`

	ModelBytes      int     `json:"model_bytes"`
	BestMs          float64 `json:"best_ms"`
	RetrainedUnixMs int64   `json:"retrained_unix_ms"`

	DriftScore   float64 `json:"drift_score"`
	Drifting     bool    `json:"drifting"`
	DriftSamples int     `json:"drift_samples"`
}

// signatureEntry is one row of the signature table. det and fed are the
// updater's own; state is the published copy readers take under sigMu.
type signatureEntry struct {
	det monitor.DriftDetector
	// fed counts the training traces det has consumed: a positional cursor
	// into the signature's history as List returns it. It is 0 only before
	// the signature's first drift check on this node.
	fed   int
	state SignatureState
}

func signatureKey(user, signature string) string { return user + "\x00" + signature }

// signatureEntry returns the table row under key, or a fresh one the first
// pass publishes. Updater only.
func (s *Server) signatureEntry(key string) *signatureEntry {
	s.sigMu.Lock()
	defer s.sigMu.Unlock()
	if e := s.signatures[key]; e != nil {
		return e
	}
	return &signatureEntry{}
}

// publishSignature records a finished pass, stamping the detector's state.
func (s *Server) publishSignature(key string, e *signatureEntry, st SignatureState) {
	st.DriftScore, st.Drifting, st.DriftSamples = e.det.Score(), e.det.Drifting(), e.det.Samples()
	s.sigMu.Lock()
	defer s.sigMu.Unlock()
	e.state = st
	s.signatures[key] = e
}

// Explain reports a signature's tuning state; false means this node has run
// no retrain pass for it since it started.
func (s *Server) Explain(user, signature string) (SignatureState, bool) {
	s.sigMu.Lock()
	defer s.sigMu.Unlock()
	e, ok := s.signatures[signatureKey(user, signature)]
	if !ok {
		return SignatureState{}, false
	}
	return e.state, true
}

// handleExplain serves GET /api/explain?user=&signature=: one signature's
// tuning state as JSON, from the owner only (421 elsewhere). It reads one
// table entry and touches no store. Like /metrics it is unauthenticated:
// it serves tuning telemetry, not stored data.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, signature := q.Get("user"), q.Get("signature")
	if !validSegment(user) || !validSegment(signature) {
		http.Error(w, "user and signature (one path segment each) required", http.StatusBadRequest)
		return
	}
	if !s.checkOwnership(w, "explain", signature) {
		return
	}
	st, ok := s.Explain(user, signature)
	if !ok {
		http.Error(w, "no retrain pass for this signature since the node started", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

// observeDrift feeds the signature's Page-Hinkley detector the residuals of
// the currently-serving model against training traces the detector has not
// yet consumed. It runs BEFORE the retrain fits a replacement model, so the
// residual stream measures how far reality moved away from the model that
// was actually serving predictions — retraining afterwards does not erase
// the evidence. Updater only: e.det and e.fed are its own.
func (s *Server) observeDrift(sc telemetry.SpanContext, e *signatureEntry, user, signature string, rows []flighting.Row) {
	fed := e.fed
	e.fed = len(rows)
	if fed >= len(rows) {
		return
	}
	// Residuals only make sense against a model that was serving; before the
	// first fit there is nothing to drift from, so those traces are skipped
	// (marked consumed) rather than scored against a later model.
	blob, err := s.Store.GetInternal(store.ModelPath(user, signature))
	if err != nil {
		return
	}
	model, err := ml.Unmarshal(blob)
	if err != nil {
		s.logfCtx(sc, "backend: drift check %s/%s: stored model unreadable: %v", user, signature, err)
		return
	}
	// On the first check since the node started (or took the signature
	// over), the serving model was fitted here before: the rows it was
	// fitted on are in-sample, not evidence of drift.
	if kr, ok := model.(*ml.KernelRidge); ok && fed == 0 {
		if fed = min(kr.Rows(), len(rows)); fed == len(rows) {
			return
		}
	}
	wasDrifting := e.det.Drifting()
	for _, t := range rows[fed:] {
		pred := model.Predict(tuners.ConfigFeatures(s.Space, nil, t.Config, t.DataSize))
		e.det.Observe(math.Log1p(t.TimeMs) - pred)
	}
	// The detector latches, so this edge fires once per signature.
	if !wasDrifting && e.det.Drifting() {
		s.tele.driftTrips.Inc()
		s.logfCtx(sc, "backend: model drift detected for %s/%s (score %.3f over %d residuals)",
			user, signature, e.det.Score(), e.det.Samples())
		s.flightRec.Eventf(flightrec.LevelWarn, "updater", sc,
			"model drift detected for %s/%s (score %.3f over %d residuals)",
			user, signature, e.det.Score(), e.det.Samples())
	}
}
