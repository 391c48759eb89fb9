package core

import (
	"math/rand"
	"sort"
	"testing"

	"throughputlab/internal/ndt"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/traceroute"
)

// synthCorpus builds a randomized corpus honoring the platform's
// scheduling contract: tests are published in scheduled-minute order,
// each executing 0–10 minutes after its slot, with traceroutes
// launching between 2 minutes before and 10 minutes after the slot.
// sched holds each test's slot minute (the chunk watermark source) and
// traceSlot the spawning test index of each trace, so callers can split
// the corpus into contract-respecting chunks at any boundary.
func synthCorpus(rng *rand.Rand, n int) (tests []*ndt.Test, traces []*traceroute.Trace, sched, traceSlot []int) {
	minute := 0
	for i := 0; i < n; i++ {
		minute += rng.Intn(3) // slots collide often enough to stress ties
		server := netaddr.Addr(1 + rng.Intn(4))
		client := netaddr.Addr(100 + rng.Intn(25))
		tests = append(tests, &ndt.Test{
			ID:          i,
			StartMinute: minute + rng.Intn(11),
			ServerAddr:  server,
			ClientAddr:  client,
		})
		sched = append(sched, minute)
		// Most tests come with a trace, a few with two, some with none —
		// exercising both unmatched tests and consumed-at-most-once
		// tie-breaks on the small pair space.
		for k := 0; k < []int{0, 1, 1, 1, 2}[rng.Intn(5)]; k++ {
			traces = append(traces, &traceroute.Trace{
				SrcAddr:      server,
				DstAddr:      client,
				LaunchMinute: minute - 2 + rng.Intn(13),
				Degraded:     rng.Intn(10) == 0,
			})
			traceSlot = append(traceSlot, i)
		}
	}
	return tests, traces, sched, traceSlot
}

// feedChunks pushes the corpus through sm in chunks of the given test
// count, assigning each trace to the chunk of the test that spawned it.
func feedChunks(sm *StreamMatcher, tests []*ndt.Test, traces []*traceroute.Trace, sched, traceSlot []int, chunk int) {
	ri := 0
	for lo := 0; lo < len(tests); lo += chunk {
		hi := lo + chunk
		if hi > len(tests) {
			hi = len(tests)
		}
		re := ri
		for re < len(traces) && traceSlot[re] < hi {
			re++
		}
		sm.Add(tests[lo:hi], traces[ri:re], sched[hi-1])
		ri = re
	}
}

// refMatchTraces is the batch association the matchers are held to:
// group traces by (server, client), order each group by launch minute
// (stable, so ties keep publication order), then let tests claim, in
// (StartMinute, publication) order, the first unused trace launched
// inside their window.
func refMatchTraces(tests []*ndt.Test, traces []*traceroute.Trace, windowMin int, mode MatchMode) *Matching {
	type key struct {
		src, dst uint32
	}
	byPair := map[key][]*traceroute.Trace{}
	for _, tr := range traces {
		k := key{uint32(tr.SrcAddr), uint32(tr.DstAddr)}
		byPair[k] = append(byPair[k], tr)
	}
	for _, list := range byPair {
		sort.SliceStable(list, func(i, j int) bool { return list[i].LaunchMinute < list[j].LaunchMinute })
	}
	used := map[*traceroute.Trace]bool{}
	m := &Matching{ByTest: map[int]*traceroute.Trace{}, Total: len(tests)}
	ordered := append([]*ndt.Test(nil), tests...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].StartMinute < ordered[j].StartMinute })
	for _, t := range ordered {
		k := key{uint32(t.ServerAddr), uint32(t.ClientAddr)}
		lo := t.StartMinute
		if mode == WindowAround {
			lo = t.StartMinute - windowMin
		}
		hi := t.StartMinute + windowMin
		for _, tr := range byPair[k] {
			if used[tr] || tr.LaunchMinute < lo {
				continue
			}
			if tr.LaunchMinute > hi {
				break
			}
			used[tr] = true
			m.ByTest[t.ID] = tr
			if PairDegraded(t, tr) {
				m.Degraded++
			}
			break
		}
	}
	return m
}

// matchingEqual compares two Matchings pairing-for-pairing.
func matchingEqual(t *testing.T, label string, want, got *Matching) {
	t.Helper()
	if got.Total != want.Total || got.Degraded != want.Degraded {
		t.Fatalf("%s: totals (%d,%d), want (%d,%d)", label,
			got.Total, got.Degraded, want.Total, want.Degraded)
	}
	if len(got.ByTest) != len(want.ByTest) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got.ByTest), len(want.ByTest))
	}
	for id, tr := range want.ByTest {
		if got.ByTest[id] != tr {
			t.Fatalf("%s: test %d paired with %p, want %p", label, id, got.ByTest[id], tr)
		}
	}
}

// TestStreamMatcherMatchesBatch pins the streaming contract: chunked
// matching with watermarks, and MatchTraces's one chunk, reproduce the
// batch reference exactly — same pairings down to tie-breaks — for both
// window modes, across chunk sizes, on randomized corpora.
func TestStreamMatcherMatchesBatch(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		tests, traces, sched, traceSlot := synthCorpus(rng, 300)
		for _, mode := range []MatchMode{WindowAfter, WindowAround} {
			for _, window := range []int{5, 30} {
				want := refMatchTraces(tests, traces, window, mode)
				matchingEqual(t, "MatchTraces", want, MatchTraces(tests, traces, window, mode))
				for _, chunk := range []int{1, 17, 300} {
					sm := NewStreamMatcher(window, mode)
					feedChunks(sm, tests, traces, sched, traceSlot, chunk)
					matchingEqual(t, "stream", want, sm.Finish())
				}
			}
		}
	}
}

// TestStreamMatcherOnPair pins callback mode: every test is surfaced
// exactly once, pairings agree with ByTest mode, and the map stays
// empty.
func TestStreamMatcherOnPair(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tests, traces, sched, traceSlot := synthCorpus(rng, 200)
	want := refMatchTraces(tests, traces, 15, WindowAfter)
	sm := NewStreamMatcher(15, WindowAfter)
	seen := map[int]*traceroute.Trace{}
	matched := 0
	sm.OnPair = func(tt *ndt.Test, tr *traceroute.Trace) {
		if _, dup := seen[tt.ID]; dup {
			t.Fatalf("test %d surfaced twice", tt.ID)
		}
		seen[tt.ID] = tr
		if tr != nil {
			matched++
		}
	}
	feedChunks(sm, tests, traces, sched, traceSlot, 37)
	got := sm.Finish()
	if len(got.ByTest) != 0 {
		t.Fatalf("callback mode accumulated %d pairs", len(got.ByTest))
	}
	if len(seen) != len(tests) || got.Total != len(tests) {
		t.Fatalf("surfaced %d tests (Total %d), want %d", len(seen), got.Total, len(tests))
	}
	if matched != want.Matched() {
		t.Fatalf("callback matched %d tests, batch matched %d", matched, want.Matched())
	}
	for id, tr := range want.ByTest {
		if seen[id] != tr {
			t.Fatalf("callback pairing for test %d differs", id)
		}
	}
}

// TestStreamMatcherBoundedBuffer asserts eviction actually happens: on
// a long campaign fed chunk by chunk, in-flight state stays far below
// corpus size.
func TestStreamMatcherBoundedBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tests, traces, sched, traceSlot := synthCorpus(rng, 2000)
	sm := NewStreamMatcher(10, WindowAround)
	peakTests, peakTraces := 0, 0
	ri := 0
	for lo := 0; lo < len(tests); lo += 50 {
		hi := lo + 50
		if hi > len(tests) {
			hi = len(tests)
		}
		re := ri
		for re < len(traces) && traceSlot[re] < hi {
			re++
		}
		sm.Add(tests[lo:hi], traces[ri:re], sched[hi-1])
		ri = re
		pt, pr := sm.InFlight()
		if pt > peakTests {
			peakTests = pt
		}
		if pr > peakTraces {
			peakTraces = pr
		}
	}
	sm.Finish()
	if peakTests > len(tests)/4 || peakTraces > len(traces)/2 {
		t.Fatalf("buffer not bounded: peak %d tests / %d traces of %d/%d total",
			peakTests, peakTraces, len(tests), len(traces))
	}
}
