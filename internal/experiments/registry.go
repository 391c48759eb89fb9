package experiments

import "sort"

// Renderer is implemented by every experiment result.
type Renderer interface {
	Render() string
}

// Entry describes one runnable experiment.
type Entry struct {
	Name  string
	Paper string // which table/figure/section it regenerates
	Run   func(*Env) (Renderer, error)
}

// Registry lists every experiment, keyed by the name used on the
// tputlab command line.
func Registry() []Entry {
	wrap := func(f func(*Env) Renderer) func(*Env) (Renderer, error) {
		return func(e *Env) (Renderer, error) { return f(e), nil }
	}
	return []Entry{
		{"fig1", "Figure 1 + §4.2 (AS hops server→client)", wrap(func(e *Env) Renderer { return Fig1(e) })},
		{"table1", "Table 1 (broadband providers)", wrap(func(e *Env) Renderer { return Table1(e) })},
		{"table2", "Table 2 (IP-link diversity from Level3 Atlanta)", wrap(func(e *Env) Renderer { return Table2(e) })},
		{"table3", "Table 3 (bdrmap borders per Ark VP)", wrap(func(e *Env) Renderer { return Table3(e) })},
		{"fig2", "Figure 2 (coverage of interconnections)", wrap(func(e *Env) Renderer { return Fig2(e) })},
		{"fig3", "Figure 3 (coverage of peer interconnections)", wrap(func(e *Env) Renderer { return Fig3(e) })},
		{"fig4", "Figure 4 (platform vs popular-content paths)", wrap(func(e *Env) Renderer { return Fig4(e) })},
		{"fig5", "Figure 5 (diurnal throughput, GTT Atlanta)", wrap(func(e *Env) Renderer { return Fig5(e) })},
		{"matching", "§4.1 (NDT↔traceroute association)",
			func(e *Env) (Renderer, error) { return Matching(e) }},
		{"thresholds", "§6.2 (congestion-threshold sensitivity)", wrap(func(e *Env) Renderer { return Thresholds(e) })},
		{"bias", "§6.1 (crowdsourcing bias diagnostics)", wrap(func(e *Env) Renderer { return BiasDiagnostics(e) })},
		{"tomography", "§3 (full vs simplified tomography)", wrap(func(e *Env) Renderer { return Tomography(e) })},
		{"snapshots", "§5.4 (coverage change over time)",
			func(e *Env) (Renderer, error) { return Snapshots(e) }},
		{"signatures", "§7 future work: TCP congestion signatures [37]", wrap(func(e *Env) Renderer { return Signatures(e) })},
		{"tslp", "§7 recommendation: TSLP latency survey [25]", wrap(func(e *Env) Renderer { return TSLP(e) })},
		{"placement", "§7 recommendation: topology-aware server placement", wrap(func(e *Env) Renderer { return Placement(e) })},
		{"battlefornet", "§2.2 (multi-server client vs NDT default)",
			func(e *Env) (Renderer, error) { return BattleForNet(e) }},
		{"ablation", "component ablations (far-side correction, alias resolution)",
			wrap(func(e *Env) Renderer { return Ablation(e) })},
		{"stratified", "§4.3 remedy: per-IP-link stratification of aggregates",
			wrap(func(e *Env) Renderer { return Stratified(e) })},
	}
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

// Names returns all experiment names, sorted.
func Names() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// renderEntry formats one experiment's contribution to the all-
// experiments output.
func renderEntry(entry Entry, r Renderer) string {
	return "=== " + entry.Name + " — " + entry.Paper + " ===\n" + r.Render() + "\n"
}
