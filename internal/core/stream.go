package core

import (
	"fmt"
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

// Window is one association rule: a window of Min minutes in Mode's
// shape.
type Window struct {
	Min  int
	Mode MatchMode
}

// bounds returns the launch minutes [lo, hi] a trace must fall in to
// pair with a test starting at minute start.
func (w Window) bounds(start int) (lo, hi int) {
	lo = start
	if w.Mode == WindowAround {
		lo = start - w.Min
	}
	return lo, start + w.Min
}

// maxWindows is the number of windows one matcher carries: one claim
// bit per window in each slot's used mask.
const maxWindows = 64

// slot is one buffered trace of a (server, client) pair: its launch
// minute, kept inline so the window search reads only the slot list,
// and which windows have claimed it (bit i for windows[i]).
type slot struct {
	launch int
	used   uint64
	tr     *traceroute.Trace
}

// StreamMatcher runs the §4.1 association (see MatchTraces)
// incrementally over a chunked corpus in bounded memory, under one or
// more windows at once. Chunks must arrive in publication (test-ID)
// order, each with a watermark W guaranteeing that every future test
// starts at minute >= W and every future traceroute launches at minute
// >= W - DefaultTraceLead — exactly what platform.Chunk.Watermark
// provides. Tests are buffered until no future trace can fall inside
// their widest window, then finalized in (StartMinute, arrival) order,
// so Finish returns the same Matchings at every chunking, MatchTraces's
// single chunk included. Each window claims traces independently (a
// trace consumed under one window is still free under the others), so
// every window's Matching equals a single-window matcher's: the windows
// share the test ordering, the per-pair trace lists and the pair
// lookup, not the claims. Traces drop out of the buffer once they are
// behind every live window, which bounds resident state to a few
// minutes of campaign activity regardless of corpus size.
type StreamMatcher struct {
	// OnPair, when set before the first Add, is invoked once per
	// (test, window) in finalization order, windows in order, with the
	// window's index and its associated trace (nil when unmatched), and
	// ByTest is left empty so the caller controls retention. Leave nil
	// to accumulate the full ByTest maps.
	OnPair func(window int, t *ndt.Test, tr *traceroute.Trace)

	windows []Window
	// widest is the largest window, which sets the finalization cut;
	// reach is how far the widest WindowAround window looks back (0
	// when every window is after-only), which sets the eviction bound.
	widest, reach int
	lead          int

	pending []*ndt.Test
	byPair  map[pairKey][]slot
	results []*Matching
}

// NewStreamMatcher returns a matcher associating each test, under each
// of the given windows (at least one, at most 64), with the first trace
// that window has not claimed.
func NewStreamMatcher(windows ...Window) *StreamMatcher {
	if len(windows) == 0 || len(windows) > maxWindows {
		panic(fmt.Sprintf("core: NewStreamMatcher with %d windows (want 1..%d)", len(windows), maxWindows))
	}
	sm := &StreamMatcher{
		windows: windows,
		lead:    DefaultTraceLead,
		byPair:  map[pairKey][]slot{},
		results: make([]*Matching, len(windows)),
	}
	for i, w := range windows {
		sm.widest = max(sm.widest, w.Min)
		if w.Mode == WindowAround {
			sm.reach = max(sm.reach, w.Min)
		}
		sm.results[i] = &Matching{ByTest: map[int]*traceroute.Trace{}}
	}
	return sm
}

// Add feeds one chunk. watermark is the scheduled minute of the last
// test in the chunk (platform.Chunk.Watermark); it must not decrease
// across calls.
func (sm *StreamMatcher) Add(tests []*ndt.Test, traces []*traceroute.Trace, watermark int) {
	sm.pending = append(sm.pending, tests...)
	var unsorted map[pairKey]bool
	for _, tr := range traces {
		k := pairKey{uint32(tr.SrcAddr), uint32(tr.DstAddr)}
		list := append(sm.byPair[k], slot{launch: tr.LaunchMinute, tr: tr})
		sm.byPair[k] = list
		if n := len(list); n > 1 && tr.LaunchMinute < list[n-2].launch {
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
		sort.SliceStable(list, func(i, j int) bool { return list[i].launch < list[j].launch })
	}
	// Same argument for tests: buffered tests all precede this chunk's in
	// publication order, so a stable sort by start minute orders the
	// whole buffer by (StartMinute, arrival).
	sort.SliceStable(sm.pending, func(i, j int) bool {
		return sm.pending[i].StartMinute < sm.pending[j].StartMinute
	})
	// A buffered test is final once even the earliest future trace
	// (launching at watermark - lead) would fall past its widest window.
	cut := watermark - sm.lead - sm.widest
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

// finalize matches one test under every window: each claims the first
// trace of the test's pair launched inside its bounds that it has not
// claimed before.
func (sm *StreamMatcher) finalize(t *ndt.Test) {
	list := sm.byPair[pairKey{uint32(t.ServerAddr), uint32(t.ClientAddr)}]
	for wi, w := range sm.windows {
		lo, hi := w.bounds(t.StartMinute)
		bit := uint64(1) << wi
		var match *traceroute.Trace
		for i := firstAtOrAfter(list, lo); i < len(list) && list[i].launch <= hi; i++ {
			if s := &list[i]; s.used&bit == 0 {
				s.used |= bit
				match = s.tr
				break
			}
		}
		res := sm.results[wi]
		res.Total++
		if match != nil {
			if PairDegraded(t, match) {
				res.Degraded++
			}
			if sm.OnPair == nil {
				res.ByTest[t.ID] = match
			}
		}
		if sm.OnPair != nil {
			sm.OnPair(wi, t, match)
		}
	}
}

// firstAtOrAfter returns the index of the first slot launched at or
// after minute in a launch-ordered list (len(list) when none is).
func firstAtOrAfter(list []slot, minute int) int {
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if list[m].launch < minute {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// evict drops traces that no buffered or future test can claim under
// any window: their launch minute sits before the lower window bound of
// every window still alive.
func (sm *StreamMatcher) evict(watermark int) {
	minStart := watermark
	if len(sm.pending) > 0 && sm.pending[0].StartMinute < minStart {
		minStart = sm.pending[0].StartMinute
	}
	evictBefore := minStart - sm.reach
	for k, list := range sm.byPair {
		n := 0
		for n < len(list) && list[n].launch < evictBefore {
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

// Finish drains the buffer and returns the completed Matchings, one
// per window in NewStreamMatcher's order. The matcher must not be used
// afterwards.
func (sm *StreamMatcher) Finish() []*Matching {
	for _, t := range sm.pending {
		sm.finalize(t)
	}
	sm.pending = nil
	sm.byPair = nil
	res := sm.results
	sm.results = nil
	return res
}
