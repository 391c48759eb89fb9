package obs

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Chrome trace_event export: the span tree serialized as a JSON
// document loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Every span becomes one complete ("X") event with microsecond
// timestamps relative to the earliest root span; spans that overlap in
// wall time — concurrent Child spans from worker pools, pipeline stage
// lifetimes — are spread across synthetic "lanes" (trace tids) so the
// viewer renders them side by side instead of as corrupted nesting.
//
// Lane assignment: a span prefers its parent's lane and takes it when
// it does not overlap the sibling placed there before it (sequential
// phases collapse onto one track, exactly like the stderr summary
// tree); overlapping siblings spill to the first lane whose latest
// event ends before they start, or a fresh lane. The assignment is
// greedy and exists purely for rendering — timestamps and durations
// are the measured values either way.

// traceEvent is one trace_event entry (the subset Perfetto needs).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the emitted document.
type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// lanes is the greedy lane allocator: one busy-until cursor per lane.
type lanes struct{ maxEnd []int64 }

// spill finds a lane free at start (its latest event ended by then) or
// opens a new one, and marks it busy through end.
func (l *lanes) spill(start, end int64) int {
	for i, e := range l.maxEnd {
		if e <= start {
			l.maxEnd[i] = end
			return i
		}
	}
	l.maxEnd = append(l.maxEnd, end)
	return len(l.maxEnd) - 1
}

// WriteTrace serializes the registry's span tree (complete and
// in-progress spans alike) as Chrome trace_event JSON. On a nil
// registry it writes an empty, still-loadable document.
func (r *Registry) WriteTrace(w io.Writer) error {
	doc := traceDoc{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "tputlab"},
	}}}
	if r != nil {
		nodes := r.spanForest(time.Now())
		if len(nodes) > 0 {
			epoch := nodes[0].start
			for _, n := range nodes[1:] {
				if n.start.Before(epoch) {
					epoch = n.start
				}
			}
			la := &lanes{}
			for _, n := range nodes {
				emitSpanEvents(&doc.TraceEvents, n, epoch, la, -1, nil)
			}
		}
	}
	// Stable output: events sorted by (ts, tid, name) so identical span
	// trees serialize identically regardless of map/emit order.
	evs := doc.TraceEvents[1:]
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Ts != evs[j].Ts {
			return evs[i].Ts < evs[j].Ts
		}
		if evs[i].Tid != evs[j].Tid {
			return evs[i].Tid < evs[j].Tid
		}
		return evs[i].Name < evs[j].Name
	})
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// emitSpanEvents appends the "X" event for n and, recursively, its
// children. parentLane is the lane the parent occupies (-1 for roots);
// cursor tracks, per recursion level, when the previously placed
// sibling on the parent's lane ends.
func emitSpanEvents(out *[]traceEvent, n SpanDump, epoch time.Time, la *lanes, parentLane int, cursor *int64) {
	start := n.start.Sub(epoch).Microseconds()
	end := n.end.Sub(epoch).Microseconds()
	if end < start {
		end = start
	}
	lane := -1
	if parentLane >= 0 && cursor != nil && start >= *cursor {
		// Fits after the previous sibling on the parent's track:
		// renders as proper nesting inside the parent event.
		lane = parentLane
		*cursor = end
	} else {
		lane = la.spill(start, end)
	}
	*out = append(*out, traceEvent{
		Name: n.Name, Ph: "X", Ts: start, Dur: end - start,
		Pid: 1, Tid: lane, Cat: "phase",
	})
	var childCursor = start
	for _, c := range n.Children {
		emitSpanEvents(out, c, epoch, la, lane, &childCursor)
	}
}
