package main

import (
	"flag"
	"strings"
	"testing"
)

// TestResumeFlagConflicts pins the fail-fast validation: every
// campaign-identity flag explicitly set alongside -resume is named,
// non-identity flags (workers, telemetry) pass, and defaults left
// untouched are not false positives.
func TestResumeFlagConflicts(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"no_flags", []string{"-resume", "m.json"}, nil},
		{"non_identity_ok", []string{"-resume", "m.json", "-parallel", "4", "-metrics-json", "m.out", "-checkpoint-every", "1", "-events", "e.out"}, nil},
		{"scale", []string{"-resume", "m.json", "-scale", "large"}, []string{"-scale"}},
		{"seed", []string{"-resume", "m.json", "-seed", "2"}, []string{"-seed"}},
		{"tests", []string{"-resume", "m.json", "-tests", "100"}, []string{"-tests"}},
		{"faults", []string{"-resume", "m.json", "-faults", "heavy"}, []string{"-faults"}},
		{"faultseed", []string{"-resume", "m.json", "-faultseed", "9"}, []string{"-faultseed"}},
		{"format", []string{"-resume", "m.json", "-corpus-format", "columnar"}, []string{"-corpus-format"}},
		{"chunk_tests", []string{"-resume", "m.json", "-chunk-tests", "32"}, []string{"-chunk-tests"}},
		{"several", []string{"-resume", "m.json", "-seed", "2", "-scale", "large", "-faults", "light"},
			[]string{"-faults", "-scale", "-seed"}}, // named in lexical order
		{"same_value_still_conflicts", []string{"-resume", "m.json", "-seed", "1"}, []string{"-seed"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("run", flag.ContinueOnError)
			err := addCommonFlags(fs).parse(fs, tc.args)
			if len(tc.want) == 0 {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			// The refusal names every conflicting flag, in lexical order.
			if err == nil || !strings.Contains(err.Error(), "drop the conflicting flag(s): "+strings.Join(tc.want, ", ")) {
				t.Fatalf("error %v does not name %v", err, tc.want)
			}
		})
	}
}
