package core

import (
	"sort"

	"throughputlab/internal/ndt"
	"throughputlab/internal/traceroute"
)

// DefaultTraceLead is the platform's scheduling contract: a traceroute
// may launch at most this many minutes before the scheduled minute of
// the test it accompanies (the platform's launch lag is in [-2, +10]
// minutes). StreamMatcher uses it to decide when a buffered test can no
// longer gain a better match from traces that have not arrived yet.
const DefaultTraceLead = 2

type pairKey struct{ src, dst uint32 }

// slot is one buffered trace of a (server, client) pair and whether a
// test has claimed it.
type slot struct {
	tr   *traceroute.Trace
	used bool
}

// StreamMatcher runs the §4.1 association (see MatchTraces)
// incrementally over a chunked corpus in bounded memory. Chunks must
// arrive in publication (test-ID) order, each with a watermark W
// guaranteeing that every future test starts at minute >= W and every
// future traceroute launches at minute >= W - DefaultTraceLead —
// exactly what platform.Chunk.Watermark provides. Tests are buffered
// until no future trace can fall inside their association window, then
// finalized in (StartMinute, arrival) order, so Finish returns the same
// Matching at every chunking, MatchTraces's single chunk included.
// Traces drop out of the buffer once they are behind every live
// window, which bounds resident state to a few minutes of campaign
// activity regardless of corpus size.
type StreamMatcher struct {
	// OnPair, when set before the first Add, is invoked once per test in
	// finalization order with its associated trace (nil when unmatched),
	// and ByTest is left empty so the caller controls retention. Leave
	// nil to accumulate the full ByTest map.
	OnPair func(*ndt.Test, *traceroute.Trace)

	windowMin int
	mode      MatchMode
	lead      int

	pending []*ndt.Test
	byPair  map[pairKey][]slot
	result  *Matching
}

// NewStreamMatcher returns a matcher associating each test with the
// first unused trace within windowMin minutes, in mode's window shape.
func NewStreamMatcher(windowMin int, mode MatchMode) *StreamMatcher {
	return &StreamMatcher{
		windowMin: windowMin,
		mode:      mode,
		lead:      DefaultTraceLead,
		byPair:    map[pairKey][]slot{},
		result:    &Matching{ByTest: map[int]*traceroute.Trace{}},
	}
}

// Add feeds one chunk. watermark is the scheduled minute of the last
// test in the chunk (platform.Chunk.Watermark); it must not decrease
// across calls.
func (sm *StreamMatcher) Add(tests []*ndt.Test, traces []*traceroute.Trace, watermark int) {
	sm.pending = append(sm.pending, tests...)
	var unsorted map[pairKey]bool
	for _, tr := range traces {
		k := pairKey{uint32(tr.SrcAddr), uint32(tr.DstAddr)}
		list := append(sm.byPair[k], slot{tr: tr})
		sm.byPair[k] = list
		if n := len(list); n > 1 && tr.LaunchMinute < list[n-2].tr.LaunchMinute {
			if unsorted == nil {
				unsorted = map[pairKey]bool{}
			}
			unsorted[k] = true
		}
	}
	// Re-sort only the pair lists this chunk left out of launch order.
	// New arrivals all carry later publication order than what is
	// already buffered, so a stable sort by launch minute keeps the
	// tie-break (publication order within a minute).
	for k := range unsorted {
		list := sm.byPair[k]
		sort.SliceStable(list, func(i, j int) bool {
			return list[i].tr.LaunchMinute < list[j].tr.LaunchMinute
		})
	}
	// Same argument for tests: buffered tests all precede this chunk's in
	// publication order, so a stable sort by start minute orders the
	// whole buffer by (StartMinute, arrival).
	sort.SliceStable(sm.pending, func(i, j int) bool {
		return sm.pending[i].StartMinute < sm.pending[j].StartMinute
	})
	// A buffered test is final once even the earliest future trace
	// (launching at watermark - lead) would fall past its window.
	cut := watermark - sm.lead - sm.windowMin
	n := 0
	for n < len(sm.pending) && sm.pending[n].StartMinute < cut {
		sm.finalize(sm.pending[n])
		n++
	}
	if n > 0 {
		rest := copy(sm.pending, sm.pending[n:])
		clear(sm.pending[rest:])
		sm.pending = sm.pending[:rest]
	}
	sm.evict(watermark)
}

// finalize matches one test: it claims the first unused trace
// launched inside the window.
func (sm *StreamMatcher) finalize(t *ndt.Test) {
	sm.result.Total++
	k := pairKey{uint32(t.ServerAddr), uint32(t.ClientAddr)}
	lo := t.StartMinute
	if sm.mode == WindowAround {
		lo = t.StartMinute - sm.windowMin
	}
	hi := t.StartMinute + sm.windowMin
	list := sm.byPair[k]
	var match *traceroute.Trace
	for i := sort.Search(len(list), func(i int) bool {
		return list[i].tr.LaunchMinute >= lo
	}); i < len(list); i++ {
		s := &list[i]
		if s.used {
			continue
		}
		if s.tr.LaunchMinute > hi {
			break
		}
		s.used = true
		match = s.tr
		break
	}
	if match != nil {
		if PairDegraded(t, match) {
			sm.result.Degraded++
		}
		if sm.OnPair == nil {
			sm.result.ByTest[t.ID] = match
		}
	}
	if sm.OnPair != nil {
		sm.OnPair(t, match)
	}
}

// evict drops traces that no buffered or future test can claim: their
// launch minute sits before the lower window bound of every window
// still alive.
func (sm *StreamMatcher) evict(watermark int) {
	minStart := watermark
	if len(sm.pending) > 0 && sm.pending[0].StartMinute < minStart {
		minStart = sm.pending[0].StartMinute
	}
	evictBefore := minStart
	if sm.mode == WindowAround {
		evictBefore -= sm.windowMin
	}
	for k, list := range sm.byPair {
		n := 0
		for n < len(list) && list[n].tr.LaunchMinute < evictBefore {
			n++
		}
		if n == 0 {
			continue
		}
		if n == len(list) {
			delete(sm.byPair, k)
			continue
		}
		rest := copy(list, list[n:])
		clear(list[rest:])
		sm.byPair[k] = list[:rest]
	}
}

// InFlight reports the buffered state — the streaming memory envelope —
// as (pending tests, buffered traces).
func (sm *StreamMatcher) InFlight() (tests, traces int) {
	for _, list := range sm.byPair {
		traces += len(list)
	}
	return len(sm.pending), traces
}

// Finish drains the buffer and returns the completed Matching. The
// matcher must not be used afterwards.
func (sm *StreamMatcher) Finish() *Matching {
	for _, t := range sm.pending {
		sm.finalize(t)
	}
	sm.pending = nil
	sm.byPair = nil
	m := sm.result
	sm.result = nil
	return m
}
