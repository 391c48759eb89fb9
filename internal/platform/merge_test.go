package platform

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// stableMerge is the schedule merge sortByMinute replaced: concatenate
// the runs, then sort.SliceStable by minute.
func stableMerge[T any](runs [][]T, minute func(T) int) []T {
	var out []T
	for _, run := range runs {
		out = append(out, run...)
	}
	sort.SliceStable(out, func(i, j int) bool { return minute(out[i]) < minute(out[j]) })
	return out
}

// randomShards draws shards of arrivals the way scheduleShard labels
// them (shard, ord), on minutes in [0, span): a small span forces heavy
// ties across shards.
func randomShards(rng *rand.Rand, shards, perShard, span int) [][]arrival {
	out := make([][]arrival, shards)
	for s := range out {
		n := rng.Intn(perShard + 1)
		for ord := 0; ord < n; ord++ {
			out[s] = append(out[s], arrival{shard: s, ord: ord, minute: rng.Intn(span)})
		}
	}
	return out
}

// TestSortByMinuteIsStableSort pins the counting-sort merge of the
// schedule shards, and of the fault sweep's execution order, to the
// sort.SliceStable merge it replaced, ties included.
func TestSortByMinuteIsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	minute := func(a arrival) int { return a.minute }
	cases := map[string][][]arrival{
		"no shards":    nil,
		"empty shards": {nil, {}, nil},
		"one shard":    randomShards(rng, 1, 500, 28*1440),
		"one minute":   randomShards(rng, 6, 200, 1),
		"heavy ties":   randomShards(rng, 16, 300, 40),
		"wide minutes": randomShards(rng, 16, 300, 28*1440),
		"late start":   {{{minute: 90}, {ord: 1, minute: 60}}, {{shard: 1, minute: 60}}},
	}
	for name, runs := range cases {
		t.Run(name, func(t *testing.T) {
			got := sortByMinute(runs, minute)
			want := stableMerge(runs, minute)
			if !slices.Equal(got, want) {
				t.Fatalf("counting sort differs from the stable sort:\n got %v\nwant %v", got, want)
			}
			for i := 1; i < len(got); i++ {
				p, q := got[i-1], got[i]
				if p.minute == q.minute && (p.shard > q.shard || p.shard == q.shard && p.ord > q.ord) {
					t.Fatalf("tie at minute %d out of (shard, ord) order: %v before %v", p.minute, p, q)
				}
			}
		})
	}
	// The fault sweep orders schedule ids by execution minute; a retry
	// can move a late id ahead of an early one.
	for _, span := range []int{1, 30, 28 * 1440} {
		t.Run(fmt.Sprintf("fault order span %d", span), func(t *testing.T) {
			execMinute := make([]int, 2000)
			var order []int
			for id := range execMinute {
				execMinute[id] = rng.Intn(span) + rng.Intn(3)*rng.Intn(90)
				if rng.Intn(10) != 0 { // dropped ids never reach the sweep
					order = append(order, id)
				}
			}
			key := func(id int) int { return execMinute[id] }
			got := sortByMinute([][]int{order}, key)
			if want := stableMerge([][]int{order}, key); !slices.Equal(got, want) {
				t.Fatalf("counting sort differs from the stable sort:\n got %v\nwant %v", got, want)
			}
		})
	}
}
