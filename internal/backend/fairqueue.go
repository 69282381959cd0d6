package backend

// fairQueue is the Model Updater's scheduling structure: one FIFO sub-queue
// per tenant, drained deficit-weighted round-robin so a tenant who floods
// the backlog only delays their own retrains — with equal weights every
// tenant with queued work gets one job per rotation regardless of backlog
// depth. It is a plain data structure, not safe for concurrent use;
// Server.mu guards every call.
type fairQueue struct {
	queues map[string]*tenantQueue
	// order is the round-robin rotation (tenant insertion order); rr indexes
	// the tenant whose turn it is.
	order []string
	rr    int
	size  int
}

type tenantQueue struct {
	jobs []updateJob
	// weight is how many jobs this tenant may drain per turn (>= 1); credit
	// is what remains of the current turn.
	weight int
	credit int
}

// push appends a job to its tenant's sub-queue, creating the sub-queue (at
// weight 1) on first use.
func (q *fairQueue) push(tenant string, j updateJob) {
	tq := q.tenant(tenant)
	tq.jobs = append(tq.jobs, j)
	q.size++
}

// tenant returns (creating if needed) the named sub-queue.
func (q *fairQueue) tenant(name string) *tenantQueue {
	if q.queues == nil {
		q.queues = make(map[string]*tenantQueue)
	}
	tq := q.queues[name]
	if tq == nil {
		tq = &tenantQueue{weight: 1}
		q.queues[name] = tq
		q.order = append(q.order, name)
	}
	return tq
}

// setWeight fixes a tenant's drain weight (minimum 1). Weighted tenants stay
// in the rotation even while empty so the weight survives; default-weight
// tenants are pruned when they drain, bounding the map by the number of
// concurrently active tenants.
func (q *fairQueue) setWeight(tenant string, w int) {
	if w < 1 {
		w = 1
	}
	q.tenant(tenant).weight = w
}

// pop removes and returns the next job under the weighted-fair rotation.
func (q *fairQueue) pop() (updateJob, bool) {
	if q.size == 0 {
		return updateJob{}, false
	}
	// At most one full rotation finds a non-empty sub-queue (size > 0);
	// the bound is captured up front because pruning shrinks order.
	for i := len(q.order); i > 0 && len(q.order) > 0; i-- {
		name := q.order[q.rr]
		tq := q.queues[name]
		if len(tq.jobs) == 0 {
			tq.credit = 0
			q.advanceOrPrune(name, tq)
			continue
		}
		if tq.credit <= 0 {
			tq.credit = tq.weight
		}
		j := tq.jobs[0]
		tq.jobs[0] = updateJob{} // release references held by the popped slot
		tq.jobs = tq.jobs[1:]
		q.size--
		tq.credit--
		if len(tq.jobs) == 0 {
			tq.credit = 0
			q.advanceOrPrune(name, tq)
		} else if tq.credit == 0 {
			q.rr = (q.rr + 1) % len(q.order)
		}
		return j, true
	}
	return updateJob{}, false
}

// advanceOrPrune moves the rotation past the current (empty) sub-queue,
// deleting it entirely when nothing distinguishes it from a fresh one.
func (q *fairQueue) advanceOrPrune(name string, tq *tenantQueue) {
	if tq.weight == 1 {
		delete(q.queues, name)
		q.order = append(q.order[:q.rr], q.order[q.rr+1:]...)
		if len(q.order) > 0 {
			q.rr %= len(q.order)
		} else {
			q.rr = 0
		}
		return
	}
	q.rr = (q.rr + 1) % len(q.order)
}
