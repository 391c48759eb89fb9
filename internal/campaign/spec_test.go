package campaign

import (
	"context"
	"strings"
	"testing"
)

// TestSpecValidate pins the flag-combination rules run and report share:
// each refusal names the offending flags, and the accepted combinations
// pass without building anything.
func TestSpecValidate(t *testing.T) {
	base := Spec{Scale: "default", Seed: 1, Faults: "off", Workers: 1, GenWorkers: 1}
	with := func(f func(*Spec)) Spec { s := base; f(&s); return s }
	cases := []struct {
		name string
		spec Spec
		set  []string
		want []string // substrings of the error; nil = accepted
	}{
		// Worker counts at their floor of 1 pass checkMin.
		{"defaults", base, nil, nil},
		{"corpus_workers", with(func(s *Spec) { s.Corpus, s.Workers = "c.tpc", 2 }),
			[]string{"corpus", "parallel"}, nil},
		{"corpus_stream", with(func(s *Spec) { s.Corpus, s.Stream = "c.tpc", true }),
			[]string{"corpus", "stream"}, []string{"-corpus", "-stream"}},
		{"corpus_corpus_out", with(func(s *Spec) { s.Corpus, s.CorpusOut = "a.tpc", "b.tpc" }),
			[]string{"corpus", "corpus-out"}, []string{"-corpus", "-corpus-out"}},
		{"corpus_identity", with(func(s *Spec) { s.Corpus, s.Seed = "c.tpc", 2 }),
			[]string{"corpus", "seed"}, []string{"-corpus pins the campaign identity", "-seed"}},
		{"bad_scale", with(func(s *Spec) { s.Scale = "tiny" }), []string{"scale"}, []string{"-scale"}},
		{"bad_parallel", with(func(s *Spec) { s.Workers = 0 }), []string{"parallel"}, []string{"-parallel"}},
		{"bad_faults", with(func(s *Spec) { s.Faults = "nosuch" }), []string{"faults"}, []string{"nosuch"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			err := tc.spec.Validate(set)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want an error naming %q", tc.want)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %q", err, w)
				}
			}
		})
	}
}

// TestEntryPointsValidate pins that the library entry points apply the
// same rules as the CLI before any world is built or file opened.
func TestEntryPointsValidate(t *testing.T) {
	base := Spec{Scale: "default", Seed: 1, Faults: "off", Workers: 1, GenWorkers: 1}
	conflicting := base
	conflicting.Corpus, conflicting.CorpusOut = "a.tpc", "b.tpc"
	if _, err := Report(context.Background(), conflicting, nil); err == nil || !strings.Contains(err.Error(), "-corpus-out") {
		t.Errorf("Report with -corpus and -corpus-out: %v, want a refusal naming -corpus-out", err)
	}
	for _, f := range []func(*Spec){
		func(s *Spec) { s.Stream = true },
		func(s *Spec) { s.Corpus = "c.tpc" },
	} {
		s := base
		f(&s)
		if _, err := Collect(context.Background(), s, nil); err == nil {
			t.Errorf("Collect accepted report-only spec %+v", s)
		}
	}
}

// TestScaleOptions pins the -scale set run and report accept: every
// listed profile maps to options, anything else is a usage error.
func TestScaleOptions(t *testing.T) {
	for _, scale := range []string{"small", "default", "medium", "large", "xlarge"} {
		if _, err := scaleOptions(scale); err != nil {
			t.Errorf("scale %q rejected: %v", scale, err)
		}
	}
	// xlarge is the million-test streaming profile.
	if opts, _ := scaleOptions("xlarge"); opts.Collect.Tests != 1_000_000 {
		t.Errorf("xlarge schedules %d tests, want 1000000", opts.Collect.Tests)
	}
	for _, scale := range []string{"tiny", "huge", "", "Default"} {
		if _, err := scaleOptions(scale); err == nil {
			t.Errorf("scale %q accepted, want usage error", scale)
		}
	}
}
