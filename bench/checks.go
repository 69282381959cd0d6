package main

import (
	"fmt"
	"path/filepath"

	"github.com/rockhopper-db/rockhopper/internal/ml"
	"github.com/rockhopper-db/rockhopper/internal/store"
	"github.com/rockhopper-db/rockhopper/internal/tuners"
)

// checkStore holds the run to the service's own promises: every
// acknowledged event is an event file on exactly one primary, and every
// signature with enough history has a model that loads and predicts.
func (r *run) checkStore(dep *deployment, acked int) {
	files, modelled, broken := 0, 0, ""
	for _, node := range dep.nodes {
		files += len(node.st.List("events/"))
		for _, sig := range signatures(node.st) {
			if len(node.st.List(fmt.Sprintf("index/%s/%s/", tenant, sig))) < 4 {
				continue
			}
			modelled++
			if err := modelPredicts(node.st, sig); err != nil && broken == "" {
				broken = fmt.Sprintf("%s: %v", sig, err)
			}
		}
	}
	r.check("acked_events_stored", files == acked, "%d acknowledged events, %d event files on primaries", acked, files)
	r.check("models_predict", broken == "" && modelled > 0, "%d signatures with >=4 events checked %s", modelled, broken)
}

func modelPredicts(st *store.DurableStore, sig string) error {
	blob, err := st.GetInternal(store.ModelPath(tenant, sig))
	if err != nil {
		return err
	}
	model, err := ml.Unmarshal(blob)
	if err != nil {
		return err
	}
	if p := model.Predict(tuners.ConfigFeatures(space, nil, space.Default(), 1e9)); !finite(p) {
		return fmt.Errorf("prediction %v at the default configuration", p)
	}
	return nil
}

// checkReopen closes the deployment and reopens its data directories cold:
// the acknowledged events must all come back, on the primaries and, in a
// fleet, on the follower that replicates each primary.
func (r *run) checkReopen(dep *deployment, acked int) error {
	lag := r.vals["fleet.lag_records_end"]
	if err := dep.close(); err != nil {
		return err
	}
	files := 0
	for i, node := range dep.nodes {
		own, err := eventFiles(node.primary)
		if err != nil {
			return err
		}
		files += own
		if len(dep.nodes) == 1 {
			continue
		}
		// Followers are the next nodes in ID order (fleet.Topology.FollowersOf).
		follower := dep.nodes[(i+1)%len(dep.nodes)]
		copied, err := eventFiles(filepath.Join(follower.dir, "replica-"+filepath.Base(node.dir)))
		if err != nil {
			return err
		}
		r.check("replica_of_"+filepath.Base(node.dir), copied == own, "primary holds %d event files, its follower %d", own, copied)
	}
	r.check("reopened_events", files == acked, "%d acknowledged events, %d event files after reopening", acked, files)
	if len(dep.nodes) > 1 {
		r.check("replication_lag_zero", lag == 0, "lag %v records at the end of the window", lag)
	}
	return nil
}

func eventFiles(dir string) (int, error) {
	st, err := store.OpenDurable(dir, storeSecret, store.DurableOptions{NoSync: true, CompactEvery: -1})
	if err != nil {
		return 0, err
	}
	n := len(st.List("events/"))
	return n, st.Close()
}
