package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"throughputlab/internal/obs"
	"throughputlab/internal/stream"
)

// RunParallelCtx executes every registry experiment over a worker pool
// and emits output in registry order, byte-identical at every worker
// count. When an experiment fails, the output of the registry entries
// before it is returned together with the error. Under cooperative
// cancellation, workers finish the experiment they are on, run
// nothing further, and the call returns an error wrapping the
// context's cause.
//
// With a registry on the Env (Opts.Obs), each experiment runs under a
// span (Entry.RunCtx), a child of one "experiments" phase span that
// opens under the span ctx carries; the experiments' own generation
// and collection spans nest under their experiment's. Allocation is
// measured — experiments.<name>.alloc_bytes — only when the sweep runs
// on one worker: runtime.ReadMemStats stops the world, and its
// process-wide counters cannot attribute overlapping experiments. An
// uninstrumented sweep records nothing.
//
// Experiments share the Env read-only (the §5 per-VP cache is built
// once under Env.vpsOnce), so any worker count is safe and the output
// deterministic.
func RunParallelCtx(ctx context.Context, e *Env, workers int) (string, error) {
	entries := Registry()
	if workers < 1 {
		workers = 1
	}
	if workers > len(entries) {
		workers = len(entries)
	}
	reg := e.Opts.Obs
	measureAlloc := reg != nil && workers == 1
	sweep, ctx := obs.Start(ctx, reg, "experiments")

	type slot struct {
		out string
		err error
	}
	slots := make([]slot, len(entries))
	stream.For(len(entries), workers, nil, func(_, i int) {
		if ctx.Err() != nil {
			return // cancelled: run nothing further
		}
		entry := entries[i]
		var before, after runtime.MemStats
		if measureAlloc {
			runtime.ReadMemStats(&before)
		}
		r, err := entry.RunCtx(ctx, e)
		if measureAlloc {
			runtime.ReadMemStats(&after)
			reg.Gauge("experiments." + entry.Name + ".alloc_bytes").Set(int64(after.TotalAlloc - before.TotalAlloc))
		}
		if err != nil {
			slots[i].err = err
			return
		}
		slots[i].out = renderEntry(entry, r)
	})
	sweep.End()

	if ctx.Err() != nil {
		return "", fmt.Errorf("experiments: run interrupted: %w", context.Cause(ctx))
	}
	var sb strings.Builder
	for _, s := range slots {
		if s.err != nil {
			return sb.String(), s.err
		}
		sb.WriteString(s.out)
	}
	return sb.String(), nil
}
