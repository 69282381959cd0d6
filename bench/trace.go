package main

import (
	"net/http"
	"strings"
	"time"

	"github.com/rockhopper-db/rockhopper/internal/resilience"
)

// span is one timed interval of the traced run. Spans of one loop share its
// Loop id; Parent is the ID of the span that was open when this one began
// (-1 for a loop span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Loop    int    `json:"loop"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// lane is the in-memory span recorder of ONE load goroutine: begin/end nest
// by call order, so no lock is needed and recording costs two clock reads
// and an append. A lane that is off records nothing; the traced run flips it
// on for alternate rounds, which is what bench.trace_overhead_pct compares.
type lane struct {
	clock resilience.Clock
	epoch time.Time
	on    bool
	loop  int
	open  []int
	spans []span
}

func newLane(clock resilience.Clock) *lane {
	return &lane{clock: clock, epoch: clock.Now(), loop: -1}
}

// reset drops what the lane recorded so far; no span may be open.
func (l *lane) reset() { l.spans, l.loop = nil, -1 }

// begin opens a span under the innermost open one and returns its handle
// (-1 while the lane is off). A span with no open parent starts a new loop.
func (l *lane) begin(name string) int {
	if !l.on {
		return -1
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	} else {
		l.loop++
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Loop: l.loop, Name: name,
		StartNs: l.clock.Now().Sub(l.epoch).Nanoseconds()})
	l.open = append(l.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (l *lane) end(id int) {
	if id < 0 {
		return
	}
	l.spans[id].EndNs = l.clock.Now().Sub(l.epoch).Nanoseconds()
	l.open = l.open[:len(l.open)-1]
}

// mergeLanes joins the spans of several lanes that share an epoch into one
// list, renumbering span and loop ids so they stay unique.
func mergeLanes(lanes ...*lane) []span {
	var out []span
	loops := 0
	for _, l := range lanes {
		base := len(out)
		for _, s := range l.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			s.Loop += loops
			out = append(out, s)
		}
		loops += l.loop + 1
	}
	return out
}

// durations returns the length in ms of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// loopCoverage is the share of total loop-span time that the loops' direct
// children account for: 1 − coverage is the loops' self time, the part of an
// iteration no named step explains.
func loopCoverage(spans []span) float64 {
	var loops, children float64
	for _, s := range spans {
		switch {
		case s.Parent < 0:
			loops += s.ms()
		case spans[s.Parent].Parent < 0:
			children += s.ms()
		}
	}
	if loops == 0 {
		return 0
	}
	return children / loops
}

// tracedTransport records one span per HTTP round trip, named after the
// backend endpoint, on the lane of the goroutine that owns the client. It is
// installed in untraced runs too (lane off), so both runs take one path.
type tracedTransport struct {
	base http.RoundTripper
	lane *lane
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.lane.begin("http." + strings.TrimPrefix(req.URL.Path, "/api/"))
	defer t.lane.end(id)
	return t.base.RoundTrip(req)
}
