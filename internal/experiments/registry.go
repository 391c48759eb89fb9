package experiments

import (
	"context"
	"fmt"

	"throughputlab/internal/obs"
)

// Renderer is implemented by every experiment result.
type Renderer interface {
	Render() string
}

// Entry describes one runnable experiment.
type Entry struct {
	Name  string
	Paper string // which table/figure/section it regenerates
	run   func(context.Context, *Env) (Renderer, error)
}

// RunCtx runs the experiment over e under ctx, in a span named after
// it (see obs.Start), and wraps a failure with the experiment's name.
// Its own generation and collection stop once ctx is cancelled.
func (entry Entry) RunCtx(ctx context.Context, e *Env) (Renderer, error) {
	sp, ctx := obs.Start(ctx, e.Opts.Obs, entry.Name)
	r, err := entry.run(ctx, e)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", entry.Name, err)
	}
	return r, nil
}

// Run is RunCtx's bare body: the experiment without cancellation, span
// or error wrap. perfbench/trace times each experiment through it.
func (entry Entry) Run(e *Env) (Renderer, error) {
	return entry.run(context.Background(), e)
}

// Registry lists every experiment, keyed by the name used on the
// tputlab command line.
func Registry() []Entry {
	return []Entry{
		{"fig1", "Figure 1 + §4.2 (AS hops server→client)", pure(Fig1)},
		{"table1", "Table 1 (broadband providers)", pure(Table1)},
		{"table2", "Table 2 (IP-link diversity from Level3 Atlanta)", pure(Table2)},
		{"table3", "Table 3 (bdrmap borders per Ark VP)", pure(Table3)},
		{"fig2", "Figure 2 (coverage of interconnections)", pure(Fig2)},
		{"fig3", "Figure 3 (coverage of peer interconnections)", pure(Fig3)},
		{"fig4", "Figure 4 (platform vs popular-content paths)", pure(Fig4)},
		{"fig5", "Figure 5 (diurnal throughput, GTT Atlanta)", pure(Fig5)},
		{"matching", "§4.1 (NDT↔traceroute association)", under(Matching)},
		{"thresholds", "§6.2 (congestion-threshold sensitivity)", pure(Thresholds)},
		{"bias", "§6.1 (crowdsourcing bias diagnostics)", pure(BiasDiagnostics)},
		{"tomography", "§3 (full vs simplified tomography)", pure(Tomography)},
		{"snapshots", "§5.4 (coverage change over time)", under(Snapshots)},
		{"signatures", "§7 future work: TCP congestion signatures [37]", pure(Signatures)},
		{"tslp", "§7 recommendation: TSLP latency survey [25]", pure(TSLP)},
		{"placement", "§7 recommendation: topology-aware server placement", pure(Placement)},
		{"battlefornet", "§2.2 (multi-server client vs NDT default)", under(BattleForNet)},
		{"ablation", "component ablations (far-side correction, alias resolution)", pure(Ablation)},
		{"stratified", "§4.3 remedy: per-IP-link stratification of aggregates", pure(Stratified)},
	}
}

// pure adapts an experiment that only reads the Env.
func pure[R Renderer](f func(*Env) R) func(context.Context, *Env) (Renderer, error) {
	return func(_ context.Context, e *Env) (Renderer, error) { return f(e), nil }
}

// under adapts an experiment that generates or collects under ctx.
func under[R Renderer](f func(context.Context, *Env) (R, error)) func(context.Context, *Env) (Renderer, error) {
	return func(ctx context.Context, e *Env) (Renderer, error) { return f(ctx, e) }
}

// Find returns the registry entry with the given name.
func Find(name string) (Entry, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// renderEntry formats one experiment's contribution to the all-
// experiments output.
func renderEntry(entry Entry, r Renderer) string {
	return "=== " + entry.Name + " — " + entry.Paper + " ===\n" + r.Render() + "\n"
}
