package bdrmap

import (
	"maps"
	"testing"

	"throughputlab/internal/mapit"
	"throughputlab/internal/obs"
	"throughputlab/internal/traceroute"
)

func resultEqual(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.ASCount != want.ASCount || got.RouterCount != want.RouterCount {
		t.Fatalf("%s: counts AS=%d router=%d, want AS=%d router=%d",
			label, got.ASCount, got.RouterCount, want.ASCount, want.RouterCount)
	}
	if len(got.Borders) != len(want.Borders) {
		t.Fatalf("%s: %d borders, want %d", label, len(got.Borders), len(want.Borders))
	}
	for i := range want.Borders {
		if got.Borders[i] != want.Borders[i] {
			t.Fatalf("%s: border %d = %+v, want %+v", label, i, got.Borders[i], want.Borders[i])
		}
	}
	for rel, e := range want.ByRel {
		if got.ByRel[rel] != e {
			t.Fatalf("%s: ByRel[%v] = %+v, want %+v", label, rel, got.ByRel[rel], e)
		}
	}
}

// TestBorderAccumulatorChunkedMatchesBorders pins the incremental
// contract: folding the campaign through Add in chunks of any size
// yields the identical border map to one batch Borders call.
func TestBorderAccumulatorChunkedMatchesBorders(t *testing.T) {
	traces, isp := campaignFor(t, "bed-us")
	az := NewAnalyzer(traces, optsFor(isp))
	want := az.Borders(traces)
	for _, chunk := range []int{1, 13, 500, 100000} {
		acc := az.NewBorderAccumulator()
		for lo := 0; lo < len(traces); lo += chunk {
			hi := lo + chunk
			if hi > len(traces) {
				hi = len(traces)
			}
			acc.Add(traces[lo:hi])
		}
		resultEqual(t, "chunked", want, acc.Result())
	}
}

// TestNewAnalyzerFromInference pins that wrapping a pre-built inference
// — the streamed path, where mapit.Builder already folded the corpus —
// reproduces the from-scratch analyzer's border map without re-running
// MAP-IT.
func TestNewAnalyzerFromInference(t *testing.T) {
	traces, isp := campaignFor(t, "bed-us")
	opts := optsFor(isp)
	want := run(traces, opts)

	b := mapit.NewBuilder(opts.MapIt)
	for lo := 0; lo < len(traces); lo += 700 {
		hi := lo + 700
		if hi > len(traces) {
			hi = len(traces)
		}
		b.Add(traces[lo:hi])
	}
	az := NewAnalyzerFromInference(b.Finish(), opts)
	resultEqual(t, "from-inference", want, az.Borders(traces))
}

// TestRecorderFoldMatchesAdd pins the recorded-path fold to Add: a
// campaign recorded chunk by chunk before any inference exists, then
// folded into an accumulator over the sealed inference, gives the
// Result and the bdrmap.* counters that Add over the same traces
// gives, with degraded traces among them.
func TestRecorderFoldMatchesAdd(t *testing.T) {
	clean, isp := campaignFor(t, "bed-us")
	traces := make([]*traceroute.Trace, len(clean))
	for i, tr := range clean {
		if i%9 == 0 {
			d := *tr
			d.Degraded = true
			tr = &d
		}
		traces[i] = tr
	}
	opts := optsFor(isp)
	inf := mapit.Run(traces, opts.MapIt)
	fold := func(feed func(*BorderAccumulator)) (*Result, map[string]uint64) {
		reg := obs.NewRegistry()
		o := opts
		o.MapIt.Obs = reg
		acc := NewAnalyzerFromInference(inf, o).NewBorderAccumulator()
		feed(acc)
		return acc.Result(), reg.CountersWithPrefix("bdrmap.")
	}
	want, wantCounters := fold(func(acc *BorderAccumulator) { acc.Add(traces) })
	if wantCounters["bdrmap.traces.skipped_degraded"] == 0 || wantCounters["bdrmap.crossings.matched"] == 0 {
		t.Fatalf("fixture exercises too little: %v", wantCounters)
	}
	for _, chunk := range []int{1, 13, len(traces)} {
		var rec Recorder
		for lo := 0; lo < len(traces); lo += chunk {
			rec.Add(traces[lo:min(lo+chunk, len(traces))])
		}
		got, counters := fold(func(acc *BorderAccumulator) { acc.AddRecorded(&rec) })
		resultEqual(t, "recorded", want, got)
		if !maps.Equal(counters, wantCounters) {
			t.Errorf("chunk %d: recorded fold counters %v, Add %v", chunk, counters, wantCounters)
		}
	}
}
