package campaign

import (
	"cmp"
	"fmt"
	"strings"

	"throughputlab/internal/datasets"
	"throughputlab/internal/experiments"
	"throughputlab/internal/export"
	"throughputlab/internal/faults"
	"throughputlab/internal/obs"
)

// Spec is one campaign invocation: the `tputlab run`/`report` flags,
// by value. Not every flag default is a zero value: Scale must name a
// scale and Workers and GenWorkers must be at least 1.
type Spec struct {
	Scale        string // small, default, medium, large or xlarge
	Seed         int64
	Tests        int // 0 = the scale's default
	Workers      int // -parallel
	GenWorkers   int // -genworkers
	CorpusFormat string
	Faults       string
	FaultSeed    int64 // 0 = Seed
	ChunkTests   int   // 0 = the platform default

	Stream    bool   // accepted for compatibility: every report reads each chunk once, as it arrives
	Corpus    string // report over this persisted corpus
	CorpusOut string // persist the corpus here while collecting
}

// identityFlags are the flags that define a campaign's corpus, in
// lexical order. -corpus takes them from the corpus header.
var identityFlags = []string{"chunk-tests", "corpus-format", "faults", "faultseed", "scale", "seed", "tests"}

// Validate applies every flag-combination rule of run and report, then
// the value checks. set names the flags given explicitly (without the
// dash); the rule that depends on it — repeated identity flags — is
// skipped when it is nil.
func (s Spec) Validate(set map[string]bool) error {
	if s.Corpus != "" {
		if s.CorpusOut != "" {
			return fmt.Errorf("-corpus and -corpus-out are mutually exclusive (the stream already exists)")
		}
		if s.Stream {
			return fmt.Errorf("-corpus and -stream are mutually exclusive (-stream collects and persists a campaign; -corpus replays a persisted one)")
		}
		var conflicts []string
		for _, name := range identityFlags {
			if set[name] {
				conflicts = append(conflicts, "-"+name)
			}
		}
		if len(conflicts) > 0 {
			return fmt.Errorf("-corpus pins the campaign identity from the corpus header; drop the conflicting flag(s): %s",
				strings.Join(conflicts, ", "))
		}
	}
	_, err := s.options(nil)
	return err
}

// scaleOptions maps a -scale value to its environment options; unknown
// values are a usage error, and run and report accept the same set.
// large (~50k ASes) and xlarge (~75k ASes, a million scheduled tests)
// are sized for a report, which never keeps the corpus resident: it
// reads each chunk once as it arrives, whatever the flags. A run keeps
// the whole corpus resident for the experiments, whatever the flags.
func scaleOptions(scale string) (experiments.Options, error) {
	opts := experiments.DefaultOptions()
	switch scale {
	case "default":
	case "small":
		opts = experiments.QuickOptions()
	case "medium":
		opts.Topo.Scale = datasets.MediumScale()
	case "large":
		opts.Topo.Scale = datasets.LargeScale()
	case "xlarge":
		opts.Topo.Scale = datasets.XLargeScale()
		opts.Collect.Tests = 1_000_000
	default:
		return experiments.Options{}, fmt.Errorf("invalid -scale %q (valid: small, default, medium, large, xlarge)", scale)
	}
	return opts, nil
}

// checkMin rejects a numeric flag below min with a usage-style error
// naming the flag, instead of silently clamping (a -parallel 0 passed
// by a wrapper script is a bug worth surfacing, not a request for
// serial execution).
func checkMin(flagName string, n, min int) error {
	if n < min {
		return fmt.Errorf("-%s must be >= %d (got %d)", flagName, min, n)
	}
	return nil
}

// options assembles the experiment Options the spec describes, with reg
// (nil disables instrumentation) wired through generation and
// collection.
func (s Spec) options(reg *obs.Registry) (experiments.Options, error) {
	opts, err := scaleOptions(s.Scale)
	if err != nil {
		return experiments.Options{}, err
	}
	if err := cmp.Or(checkMin("parallel", s.Workers, 1), checkMin("genworkers", s.GenWorkers, 1)); err != nil {
		return experiments.Options{}, err
	}
	if err := export.CheckFormat(s.CorpusFormat); err != nil {
		return experiments.Options{}, fmt.Errorf("invalid -corpus-format: %w", err)
	}
	if err := checkMin("chunk-tests", s.ChunkTests, 0); err != nil {
		return experiments.Options{}, err
	}
	prof, err := faults.ByName(s.Faults)
	if err != nil {
		return experiments.Options{}, err
	}
	opts.Topo.Seed = s.Seed
	opts.Topo.Workers = s.GenWorkers
	if s.Tests > 0 {
		opts.Collect.Tests = s.Tests
	}
	opts.Collect.Faults = prof
	opts.Collect.FaultSeed = s.FaultSeed
	opts.Collect.ChunkTests = s.ChunkTests
	opts.Workers = s.Workers
	opts.Obs, opts.Topo.Obs, opts.Collect.Obs = reg, reg, reg
	return opts, nil
}
