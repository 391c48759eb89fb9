package core

import (
	"fmt"
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
		traced := []int{0, 1, 1, 1, 2}[rng.Intn(5)]
		if rng.Intn(20) == 0 {
			// A pair of its own that no trace ever serves.
			client, traced = netaddr.Addr(1000+i), 0
		}
		tests = append(tests, &ndt.Test{
			ID:          i,
			StartMinute: minute + rng.Intn(11),
			ServerAddr:  server,
			ClientAddr:  client,
		})
		sched = append(sched, minute)
		// Most tests come with a trace, a few with two, some with none —
		// exercising both unmatched tests and consumed-at-most-once
		// tie-breaks on the small pair space. Launch minutes are drawn
		// independently, so a pair's traces arrive out of launch order.
		for k := 0; k < traced; k++ {
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

// windowSets are the matcher configurations the streaming tests run:
// each window alone, several windows of both shapes in one matcher (the
// widest first, so no later window sets the finalization cut or the
// eviction bound), and a window carried twice.
var windowSets = [][]Window{
	{{5, WindowAfter}},
	{{30, WindowAfter}},
	{{5, WindowAround}},
	{{30, WindowAround}},
	{{30, WindowAround}, {1, WindowAfter}, {5, WindowAfter}, {1, WindowAround}, {20, WindowAfter}},
	{{20, WindowAfter}, {2, WindowAround}, {20, WindowAfter}},
}

// TestStreamMatcherMatchesBatch pins the streaming contract: chunked
// matching with watermarks, and MatchTraces's one chunk, reproduce the
// batch reference exactly — same pairings down to tie-breaks — for both
// window modes, across chunk sizes, on randomized corpora. A matcher
// carrying several windows gives, for each of them, what the reference
// gives for that window alone.
func TestStreamMatcherMatchesBatch(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		tests, traces, sched, traceSlot := synthCorpus(rng, 300)
		for _, ws := range windowSets {
			want := make([]*Matching, len(ws))
			for i, w := range ws {
				want[i] = refMatchTraces(tests, traces, w.Min, w.Mode)
			}
			if len(ws) == 1 {
				matchingEqual(t, "MatchTraces", want[0], MatchTraces(tests, traces, ws[0].Min, ws[0].Mode))
			}
			for _, chunk := range []int{1, 17, 300} {
				sm := NewStreamMatcher(ws...)
				feedChunks(sm, tests, traces, sched, traceSlot, chunk)
				got := sm.Finish()
				if len(got) != len(ws) {
					t.Fatalf("%v: %d matchings, want %d", ws, len(got), len(ws))
				}
				for i, w := range ws {
					matchingEqual(t, fmt.Sprintf("stream %v chunk %d window %d", w, chunk, i), want[i], got[i])
				}
			}
		}
	}
}

// TestStreamMatcherOnPair pins callback mode: every (test, window) is
// surfaced exactly once, pairings agree with the per-window reference,
// and the maps stay empty.
func TestStreamMatcherOnPair(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tests, traces, sched, traceSlot := synthCorpus(rng, 200)
	ws := []Window{{15, WindowAfter}, {3, WindowAround}}
	sm := NewStreamMatcher(ws...)
	seen := make([]map[int]*traceroute.Trace, len(ws))
	for i := range seen {
		seen[i] = map[int]*traceroute.Trace{}
	}
	sm.OnPair = func(wi int, tt *ndt.Test, tr *traceroute.Trace) {
		if _, dup := seen[wi][tt.ID]; dup {
			t.Fatalf("test %d surfaced twice under window %d", tt.ID, wi)
		}
		seen[wi][tt.ID] = tr
	}
	feedChunks(sm, tests, traces, sched, traceSlot, 37)
	got := sm.Finish()
	for wi, w := range ws {
		want := refMatchTraces(tests, traces, w.Min, w.Mode)
		if len(got[wi].ByTest) != 0 {
			t.Fatalf("callback mode accumulated %d pairs", len(got[wi].ByTest))
		}
		if len(seen[wi]) != len(tests) || got[wi].Total != len(tests) || got[wi].Degraded != want.Degraded {
			t.Fatalf("window %v: surfaced %d tests (Total %d, Degraded %d), want %d (Degraded %d)",
				w, len(seen[wi]), got[wi].Total, got[wi].Degraded, len(tests), want.Degraded)
		}
		matched := 0
		for id, tr := range seen[wi] {
			if tr != nil {
				matched++
			}
			if want.ByTest[id] != tr {
				t.Fatalf("window %v: callback pairing for test %d differs", w, id)
			}
		}
		if matched != want.Matched() {
			t.Fatalf("window %v: callback matched %d tests, batch matched %d", w, matched, want.Matched())
		}
	}
}

// TestStreamMatcherBoundedBuffer asserts eviction actually happens: on
// a long campaign fed chunk by chunk, in-flight state stays far below
// corpus size.
func TestStreamMatcherBoundedBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tests, traces, sched, traceSlot := synthCorpus(rng, 2000)
	sm := NewStreamMatcher(Window{10, WindowAround})
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
