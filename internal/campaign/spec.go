package campaign

import (
	"cmp"
	"fmt"
	"strings"

	"throughputlab/internal/checkpoint"
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

	Stream          bool   // accepted for compatibility: every report reads each chunk once, as it arrives
	Corpus          string // report over this persisted corpus
	CorpusOut       string // persist the corpus here while collecting
	Resume          string // continue from this checkpoint manifest
	CheckpointEvery int    // chunks between durability barriers (0 = default)
}

// identityFlags are the flags that define a campaign's corpus, in
// lexical order. -resume takes them from the manifest and -corpus from
// the corpus header.
var identityFlags = []string{"chunk-tests", "corpus-format", "faults", "faultseed", "scale", "seed", "tests"}

// Validate applies every flag-combination rule of run and report, then
// the value checks. set names the flags given explicitly (without the
// dash); the rules that depend on it — repeated identity flags, an
// explicit -checkpoint-every — are skipped when it is nil.
func (s Spec) Validate(set map[string]bool) error {
	var conflicts []string
	for _, name := range identityFlags {
		if set[name] {
			conflicts = append(conflicts, "-"+name)
		}
	}
	pins := func(mode, source string) error {
		return fmt.Errorf("%s pins the campaign identity from the %s; drop the conflicting flag(s): %s",
			mode, source, strings.Join(conflicts, ", "))
	}
	switch {
	case s.Resume != "":
		if len(conflicts) > 0 {
			return pins("-resume", "manifest")
		}
		if s.Corpus != "" || s.CorpusOut != "" || s.Stream {
			return fmt.Errorf("-resume is incompatible with -corpus, -corpus-out and -stream (the corpus path and assembly come from the manifest)")
		}
	case s.Corpus != "":
		if s.CorpusOut != "" {
			return fmt.Errorf("-corpus and -corpus-out are mutually exclusive (the stream already exists)")
		}
		if s.Stream {
			return fmt.Errorf("-corpus and -stream are mutually exclusive (-stream collects and persists a campaign; -corpus replays a persisted one)")
		}
		if len(conflicts) > 0 {
			return pins("-corpus", "corpus header")
		}
	}
	if set["checkpoint-every"] && s.CorpusOut == "" && s.Resume == "" {
		return fmt.Errorf("-checkpoint-every spaces the durability barriers of a persisted corpus; it needs -corpus-out or -resume")
	}
	_, err := s.options(nil)
	return err
}

// scaleOptions maps a -scale value to its environment options; unknown
// values are a usage error, and run and report accept the same set.
// large (~50k ASes) and xlarge (~75k ASes, a million scheduled tests)
// are sized for the streaming pipeline: run them with -stream or
// -corpus-out so the corpus never has to be resident all at once.
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
	if err := cmp.Or(checkMin("chunk-tests", s.ChunkTests, 0), checkMin("checkpoint-every", s.CheckpointEvery, 0)); err != nil {
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

// fingerprint is the campaign identity a checkpoint manifest pins a
// partial corpus to.
func (s Spec) fingerprint(opts experiments.Options) checkpoint.Fingerprint {
	return checkpoint.Fingerprint{
		Scale:      s.Scale,
		Seed:       opts.Topo.Seed,
		Tests:      opts.Collect.Tests,
		Shards:     opts.Collect.Shards,
		ChunkTests: opts.Collect.ChunkTests,
		Faults:     opts.Collect.Faults.Name,
		FaultSeed:  opts.Collect.FaultSeed,
		Format:     corpusFormat,
	}
}
