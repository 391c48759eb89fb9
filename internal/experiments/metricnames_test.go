package experiments

import (
	"context"
	"regexp"
	"testing"

	"throughputlab/internal/faults"
	"throughputlab/internal/obs"
)

// metricName is the repo-wide naming convention: dotted
// stage.sub.metric paths, every segment lowercase [a-z0-9_-], at least
// two segments. "collect.tests" and "faults.test_abort.retried" pass;
// "tests", "Collect.Tests", and "collect..tests" do not.
var metricName = regexp.MustCompile(`^[a-z0-9_-]+(\.[a-z0-9_-]+)+$`)

// TestMetricNamesFollowConvention walks the full metric namespace of a
// completely instrumented run — world generation, fault-injected
// collection, the streamed chunk path, and the experiment sweep —
// and rejects any counter, gauge, histogram, or time-series key that
// is not a namespaced dotted path. A metric that fails here would
// collide or be unfindable on every dashboard fed by the JSON dump.
func TestMetricNamesFollowConvention(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full instrumented campaign")
	}
	reg := obs.NewRegistry()
	reg.EnableTimeSeries(nil)
	bus := reg.EnableEvents(4096)
	opts := QuickOptions()
	opts.Obs = reg
	opts.Topo.Workers = 2
	opts.Collect.Faults = faults.Light()
	env, err := NewEnvCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	// A serial sweep: only it measures the experiments.<name>.alloc_bytes
	// gauges, so it registers every metric name a sweep can produce.
	if _, _, err := RunParallelCtx(context.Background(), env, 1); err != nil {
		t.Fatal(err)
	}
	bus.Close()

	d := reg.Snapshot()
	check := func(section, name string) {
		t.Helper()
		if !metricName.MatchString(name) {
			t.Errorf("%s %q violates the stage.sub.metric naming convention", section, name)
		}
	}
	total := 0
	for name := range d.Counters {
		check("counter", name)
		total++
	}
	for name := range d.Gauges {
		check("gauge", name)
		total++
	}
	for name := range d.Histograms {
		check("histogram", name)
		total++
	}
	for name := range d.Series {
		check("series", name)
	}
	if d.Events != nil {
		for kind := range d.Events.ByKind {
			check("event kind", kind)
		}
	}
	// Sanity: an empty walk would vacuously pass; a fully instrumented
	// run registers metrics across at least these subsystems.
	if total < 20 {
		t.Fatalf("only %d metrics registered — instrumentation did not run", total)
	}
	// The execution-time split is counted per worker and flushed per
	// chunk; a fault-injected campaign must still report both halves.
	for _, name := range []string{"collect.execute.ndt_ns", "collect.execute.traceroute_ns"} {
		if d.Counters[name] == 0 {
			t.Errorf("counter %s missing or zero", name)
		}
	}
	for _, prefix := range []string{"collect.", "resolver.", "faults.", "topogen.", "experiments."} {
		found := false
		for name := range d.Counters {
			if len(name) > len(prefix) && name[:len(prefix)] == prefix {
				found = true
				break
			}
		}
		if !found {
			for name := range d.Gauges {
				if len(name) > len(prefix) && name[:len(prefix)] == prefix {
					found = true
					break
				}
			}
		}
		if !found {
			for name := range d.Histograms {
				if len(name) > len(prefix) && name[:len(prefix)] == prefix {
					found = true
					break
				}
			}
		}
		if !found {
			t.Errorf("no metric registered under %q — expected that subsystem instrumented", prefix)
		}
	}
}
