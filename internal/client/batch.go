package client

import (
	"bytes"
	"context"
	"fmt"
	"net/url"

	"github.com/rockhopper-db/rockhopper/internal/backend"
	"github.com/rockhopper-db/rockhopper/internal/flighting"
)

// PostEventBatch ships traces spanning many query signatures in one call to
// POST /api/events/batch — each trace's query_id names its signature, and
// the backend commits the whole batch as a single store group commit. This
// is the amortized path for chatty listeners: one round trip and one fsync
// per call instead of one per signature.
func (c *Client) PostEventBatch(ctx context.Context, user, jobID string, traces []flighting.Trace) (backend.BatchResponse, error) {
	if len(traces) == 0 {
		return backend.BatchResponse{}, nil
	}
	for i, tr := range traces {
		if tr.QueryID == "" {
			return backend.BatchResponse{}, fmt.Errorf("client: batch trace %d has no QueryID (the signature key)", i)
		}
	}
	var buf bytes.Buffer
	if err := flighting.WriteTraces(&buf, traces); err != nil {
		return backend.BatchResponse{}, err
	}
	return c.postIngest(ctx, "post_events_batch", "post event batch", jobID,
		"/api/events/batch?"+url.Values{"user": {user}, "job_id": {jobID}}.Encode(), buf.Bytes())
}
