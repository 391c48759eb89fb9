package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"throughputlab/internal/obs"
	"throughputlab/internal/platform"
	"throughputlab/internal/routing"
	"throughputlab/internal/stream"
)

// ExperimentStat records the cost of one experiment inside a
// RunParallelCtx sweep.
type ExperimentStat struct {
	Name string
	// Wall is the experiment's own wall time.
	Wall time.Duration
	// AllocBytes is the heap allocated while the experiment ran,
	// measured from the runtime's global counters. It is measured only
	// in a serial sweep (Workers == 1) and zero otherwise: with
	// experiments overlapping, the process-wide delta would charge one
	// experiment with its neighbours' allocations.
	AllocBytes uint64
}

// RunStats summarizes a RunParallelCtx sweep. It is a view over the obs
// registry the sweep ran against: per-experiment numbers come from the
// sweep's "experiments" span tree and alloc gauges, and the resolver
// block from the same counters `-metrics-json` dumps — there is no second
// bookkeeping path.
type RunStats struct {
	Workers int
	// Wall is the end-to-end sweep time; with more than one worker it
	// is less than the sum of per-experiment wall times.
	Wall time.Duration
	// Experiments holds per-experiment costs in registry order.
	Experiments []ExperimentStat
	// Resolver is the world resolver's cumulative cache/fallback
	// counters at the end of the sweep (world generation, corpus
	// collection, and the experiments all resolve through it). A
	// nonzero CoreFallbacks means some AS was routed through a metro it
	// has no presence in — a topology bug the metro-keyed caches would
	// otherwise mask.
	Resolver routing.Stats
	// Completeness is the corpus's fault-plane ledger; the zero value
	// (clean campaigns) renders nothing.
	Completeness platform.Completeness
	// MatchedDegraded counts matched test↔trace pairs excluded from
	// path-sensitive analyses as degraded.
	MatchedDegraded int
	// FaultCounters snapshots the faults.<kind>.<outcome> counters
	// (nil/empty when the fault plane was off).
	FaultCounters map[string]uint64
}

// Summary renders the stats as a small table, slowest experiment
// first; equal wall times order by experiment name so the rendering is
// deterministic. The alloc column appears only for serial sweeps, the
// only ones that measure it.
func (s *RunStats) Summary() string {
	ordered := append([]ExperimentStat(nil), s.Experiments...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Wall != ordered[j].Wall {
			return ordered[i].Wall > ordered[j].Wall
		}
		return ordered[i].Name < ordered[j].Name
	})
	var sum time.Duration
	for _, st := range ordered {
		sum += st.Wall
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d experiments in %.2fs wall (%.2fs cpu-serial, %d workers)\n",
		len(ordered), s.Wall.Seconds(), sum.Seconds(), s.Workers)
	for _, st := range ordered {
		fmt.Fprintf(&sb, "  %-12s %8.3fs", st.Name, st.Wall.Seconds())
		if s.Workers == 1 {
			fmt.Fprintf(&sb, "  %8.1f MB", float64(st.AllocBytes)/(1<<20))
		}
		sb.WriteByte('\n')
	}
	rs := s.Resolver
	hitRate := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return 100 * float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(&sb, "resolver caches: route %.1f%% segment %.1f%% inter %.1f%% aspath %.1f%% hit; core fallbacks %d\n",
		hitRate(rs.RouteHits, rs.RouteMisses),
		hitRate(rs.SegmentHits, rs.SegmentMisses),
		hitRate(rs.InterHits, rs.InterMisses),
		hitRate(rs.ASPathHits, rs.ASPathMisses),
		rs.CoreFallbacks)
	// Data-completeness block: only campaigns the fault plane actually
	// touched print it, so clean sweeps stay byte-identical to the
	// pre-fault-layer output.
	if c := s.Completeness; c.Degraded() {
		fmt.Fprintf(&sb, "data completeness: %d/%d tests collected (%d abandoned, %d rows dropped); %d truncated; %d degraded traces; %d matched pairs excluded\n",
			c.ScheduledTests-c.AbandonedTests-c.DroppedRows, c.ScheduledTests,
			c.AbandonedTests, c.DroppedRows, c.TruncatedTests, c.DegradedTraces,
			s.MatchedDegraded)
	}
	if len(s.FaultCounters) > 0 {
		names := make([]string, 0, len(s.FaultCounters))
		for n := range s.FaultCounters {
			if s.FaultCounters[n] > 0 {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&sb, "  %-36s %d\n", n, s.FaultCounters[n])
		}
	}
	return sb.String()
}

// RunParallelCtx executes every registry experiment over a worker pool
// and emits output in registry order, byte-identical at every worker
// count. When an experiment fails, the output of the registry entries
// before it is returned together with the error. Under cooperative
// cancellation, workers finish the experiment they are on, run
// nothing further, and the call returns an error wrapping the
// context's cause.
//
// Each experiment runs under an obs span (child of one "experiments"
// phase span) on the Env's registry — or a private registry when the
// Env is uninstrumented — and RunStats is assembled from those spans,
// so the `-metrics-json` dump and the Summary table always agree. Allocation
// is measured — experiments.<name>.alloc_bytes — only when the sweep
// runs on one worker: runtime.ReadMemStats stops the world, and its
// process-wide counters cannot attribute overlapping experiments.
//
// Experiments share the Env read-only (the §5 per-VP cache is built
// once under Env.vpsOnce), so any worker count is safe and the output
// deterministic.
func RunParallelCtx(ctx context.Context, e *Env, workers int) (string, *RunStats, error) {
	entries := Registry()
	if workers < 1 {
		workers = 1
	}
	if workers > len(entries) {
		workers = len(entries)
	}
	reg := e.Opts.Obs
	if reg == nil {
		// Stats are always collected; an uninstrumented run just keeps
		// them on a private registry nobody else renders.
		reg = obs.NewRegistry()
	}
	start := time.Now()
	sweep := reg.Span("experiments")

	type slot struct {
		out  string
		err  error
		span *obs.Span
	}
	slots := make([]slot, len(entries))
	allocs := make([]uint64, len(entries))
	stream.For(len(entries), workers, nil, func(_, i int) {
		if ctx.Err() != nil {
			return // cancelled: run nothing further
		}
		entry := entries[i]
		var before, after runtime.MemStats
		if workers == 1 {
			runtime.ReadMemStats(&before)
		}
		sp := sweep.Child(entry.Name)
		r, err := entry.Run(e)
		sp.End()
		slots[i].span = sp
		if workers == 1 {
			runtime.ReadMemStats(&after)
			allocs[i] = after.TotalAlloc - before.TotalAlloc
			reg.Gauge("experiments." + entry.Name + ".alloc_bytes").Set(int64(allocs[i]))
		}
		if err != nil {
			slots[i].err = fmt.Errorf("experiment %s: %w", entry.Name, err)
			return
		}
		slots[i].out = renderEntry(entry, r)
	})
	sweep.End()

	stats := &RunStats{
		Workers:         workers,
		Resolver:        e.World.Resolver.Stats(),
		Completeness:    e.Corpus.Completeness,
		MatchedDegraded: e.Matching.Degraded,
		FaultCounters:   reg.CountersWithPrefix("faults."),
	}
	if ctx.Err() != nil {
		stats.Wall = time.Since(start)
		return "", stats, fmt.Errorf("experiments: run interrupted: %w", context.Cause(ctx))
	}
	var sb strings.Builder
	for i := range slots {
		stats.Experiments = append(stats.Experiments, ExperimentStat{
			Name: entries[i].Name, Wall: slots[i].span.Duration(), AllocBytes: allocs[i],
		})
		if slots[i].err != nil {
			stats.Wall = time.Since(start)
			return sb.String(), stats, slots[i].err
		}
		sb.WriteString(slots[i].out)
	}
	stats.Wall = time.Since(start)
	return sb.String(), stats, nil
}
