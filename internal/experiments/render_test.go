package experiments

import (
	"strings"
	"testing"
)

// TestRenderedArtifactsCarryKeyContent pins the rendered output of each
// experiment to the headers and rows the paper's artifacts carry, so a
// refactor cannot silently drop a column.
func TestRenderedArtifactsCarryKeyContent(t *testing.T) {
	cases := []struct {
		name string
		want []string
	}{
		{"fig1", []string{"1 hop", "2+ hops", "Windstream", "directly-connected"}},
		{"table1", []string{"Comcast", "23329000", "Mediacom", "1085000"}},
		{"table2", []string{"#links", "tests/link", "router groups"}},
		{"table3", []string{"bed-us", "san6-us", "CUST", "PEER", "rtr"}},
		{"fig2", []string{"bdrmap AS", "M-Lab %", "Speedtest %"}},
		{"fig3", []string{"PEER", "bdrmap AS"}},
		{"fig4", []string{"Alexa", "Mlab−Alexa", "uncovered"}},
		{"fig5", []string{"GTT atl", "AT&T", "Comcast", "RTT ms", "retrans %", "samples", "congested=true"}},
		{"matching", []string{"window", "after-only", "±window", "single-threaded"}},
		{"thresholds", []string{"drop thr", "precision", "recall"}},
		{"bias", []string{"night/evening", "tests/client"}},
		{"tomography", []string{"bad IP links", "AS-level verdicts", "mislocalized"}},
		{"signatures", []string{"self-induced", "external", "accuracy"}},
		{"tslp", []string{"probes/link/day", "diurnal elevation", "TP="}},
		{"placement", []string{"topology-aware", "latency-first", "greedy pick"}},
		{"battlefornet", []string{"battle-for-the-net", "IP links seen", "traced"}},
	}
	for _, c := range cases {
		out := result[Renderer](t, c.name).Render()
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s render missing %q", c.name, want)
			}
		}
	}
}

// TestSnapshotsRender checks the snapshots experiment, which builds a
// second world, the same way.
func TestSnapshotsRender(t *testing.T) {
	out := result[*SnapshotsResult](t, "snapshots").Render()
	for _, want := range []string{"M-Lab servers", "flat", "Speedtest A", "Speedtest B"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshots render missing %q", want)
		}
	}
}
