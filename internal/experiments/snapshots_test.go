package experiments

import (
	"context"
	"maps"
	"slices"
	"strings"
	"testing"

	"throughputlab/internal/obs"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
)

// TestSnapshotsLeaveRunTelemetry runs Snapshots on an instrumented Env
// whose VP analyses are already cached, so it touches nothing of the
// run's world: its second world must then change no topogen.* gauge
// and no resolver.* counter, while its generate span still sits under
// the experiment's.
func TestSnapshotsLeaveRunTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two extra worlds")
	}
	reg := obs.NewRegistry()
	opts := QuickOptions()
	opts.Collect.Tests = 500
	opts.Obs = reg
	e, err := NewEnvCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	VPAnalyses(e)
	before := reg.Snapshot()
	if before.Gauges["topogen.links"] == 0 || before.Counters["resolver.route.hits"] == 0 {
		t.Fatal("the run's world was not observed")
	}
	sp := reg.Span("snapshots")
	if _, err := Snapshots(obs.WithSpan(context.Background(), sp), e); err != nil {
		t.Fatal(err)
	}
	sp.End()
	after := reg.Snapshot()
	for _, kind := range []struct {
		prefix        string
		before, after map[string]int64
	}{
		{"topogen.", before.Gauges, after.Gauges},
		{"resolver.", widen(before.Counters), widen(after.Counters)},
	} {
		for name, v := range kind.after {
			if strings.HasPrefix(name, kind.prefix) && kind.before[name] != v {
				t.Errorf("%s: %d before snapshots, %d after", name, kind.before[name], v)
			}
		}
	}
	root := after.Spans[len(after.Spans)-1]
	var children []string
	for _, c := range root.Children {
		children = append(children, c.Name)
	}
	if root.Name != "snapshots" || !slices.Equal(children, []string{"generate"}) {
		t.Errorf("span %s has children %v, want snapshots with [generate]", root.Name, children)
	}
}

func widen(m map[string]uint64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = int64(v)
	}
	return out
}

// TestASLevelVPAnalysisMatchesFull holds the AS-level analysis that
// Snapshots runs on its second world to the full AnalyzeVP on that
// world (QuickOptions, drifted): per VP, the same borders (neighbor,
// relationship, trace count) and the same M-Lab and Speedtest AS
// coverage sets.
func TestASLevelVPAnalysisMatchesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an extra world and analyzes its VPs twice")
	}
	opts := QuickOptions()
	cfgB := snapshotConfig(opts.Topo)
	envB := &Env{Opts: Options{Topo: cfgB, Collect: opts.Collect, Workers: 2}, World: topogen.MustGenerate(cfgB)}
	asLevel, err := analyzeVPs(context.Background(), envB, false)
	if err != nil {
		t.Fatal(err)
	}
	full, err := analyzeVPs(context.Background(), envB, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(asLevel) != len(full) || len(full) == 0 {
		t.Fatalf("%d AS-level analyses, %d full", len(asLevel), len(full))
	}
	peers := 0
	for i, f := range full {
		a := asLevel[i]
		if a.Label != f.Label || a.ISP != f.ISP {
			t.Fatalf("VP %d: %s/%s, full %s/%s", i, a.Label, a.ISP, f.Label, f.ISP)
		}
		if len(a.Borders.Borders) != len(f.Borders.Borders) {
			t.Fatalf("%s: %d borders, full %d", f.Label, len(a.Borders.Borders), len(f.Borders.Borders))
		}
		for j, fb := range f.Borders.Borders {
			ab := a.Borders.Borders[j]
			if ab.Neighbor != fb.Neighbor || ab.Rel != fb.Rel || ab.Traces != fb.Traces {
				t.Errorf("%s border %d: %+v, full %+v", f.Label, j, ab, fb)
			}
			peers += btoi(fb.Rel == topology.RelPeer)
		}
		if !maps.Equal(a.MLabAS, f.MLabAS) || !maps.Equal(a.SpeedAS, f.SpeedAS) {
			t.Errorf("%s: coverage M-Lab %v Speedtest %v, full %v %v", f.Label, a.MLabAS, a.SpeedAS, f.MLabAS, f.SpeedAS)
		}
		if a.AlexaAS != nil || a.MLabRouter != nil || a.SpeedRouter != nil || a.AlexaRouter != nil {
			t.Errorf("%s: AS-level analysis built Alexa or router-level sets", f.Label)
		}
	}
	if peers == 0 {
		t.Error("no peer border in the drifted world: the comparison checks nothing peer coverage reads")
	}
}
