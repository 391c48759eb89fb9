package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync"
	"testing"

	"throughputlab/internal/export"
	"throughputlab/internal/platform"
)

// The package's shared fixtures are built on first use, so a -run that
// selects one test builds only what that test reads, and they are
// passive: no test changes them. A test that must attach a registry or
// alter options builds its own Env. TestMain enforces passivity.

// passive holds one check per shared fixture built so far. TestMain
// runs them once every test has run; a fixture no test asked for was
// never built and is not checked.
var passive []func() error

// env is the package's shared Env: world generation, the corpus and the
// shared inference stages at QuickOptions.
var env = sync.OnceValue(func() *Env {
	e, err := NewEnvCtx(context.Background(), QuickOptions())
	if err != nil {
		panic(err)
	}
	want := envDigest(e)
	passive = append(passive, func() error {
		if got := envDigest(e); got != want {
			return fmt.Errorf("shared Env digest %#x, want %#x as built: a test changed it", got, want)
		}
		return nil
	})
	return e
})

// serialRef is the one serial sweep of the registry over env(): every
// experiment's result in registry order and the bytes they render to.
// Sweeps at other worker counts or with a registry attached, and the
// registry, render and shape tests, all compare against it instead of
// re-running the experiments.
type serialRef struct {
	results []Renderer
	out     string
}

func (r *serialRef) render() string {
	var sb strings.Builder
	for i, entry := range Registry() {
		sb.WriteString(renderEntry(entry, r.results[i]))
	}
	return sb.String()
}

var reference = sync.OnceValues(func() (*serialRef, error) {
	ref := &serialRef{}
	for _, entry := range Registry() {
		r, err := entry.Run(env())
		if err != nil {
			return nil, fmt.Errorf("serial reference: experiment %s: %w", entry.Name, err)
		}
		ref.results = append(ref.results, r)
	}
	ref.out = ref.render()
	passive = append(passive, func() error {
		if ref.render() != ref.out {
			return fmt.Errorf("the serial reference re-renders differently: a test changed a result")
		}
		return nil
	})
	return ref, nil
})

// serial returns the serial reference, failing t if an experiment
// failed.
func serial(t *testing.T) *serialRef {
	t.Helper()
	ref, err := reference()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// result returns the named experiment's result from the serial
// reference.
func result[T Renderer](t *testing.T, name string) T {
	t.Helper()
	for i, entry := range Registry() {
		if entry.Name == name {
			r, ok := serial(t).results[i].(T)
			if !ok {
				t.Fatalf("experiment %s returned %T", name, serial(t).results[i])
			}
			return r
		}
	}
	t.Fatalf("experiment %q not registered", name)
	var none T
	return none
}

// envDigest hashes what a test can observe of an Env: its options and
// world identity, the links' capacity and utilization, the corpus,
// MAP-IT's inference and the matching.
func envDigest(e *Env) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n%p\n", e.Opts, e.World)
	for _, l := range e.World.Topo.Links() {
		fmt.Fprintf(h, "%g %g %g\n", l.CapacityMbps, l.BaseUtil, l.PeakUtil)
	}
	// The corpus codec round-trips every test and trace field, so the
	// corpus's encoding digests it.
	c := e.Corpus
	cw, err := export.NewColumnarWriter(h, export.Public{}, export.StreamMeta{}, 1)
	if err == nil {
		err = cw.WriteChunk(&platform.Chunk{Tests: c.Tests, Traces: c.Traces})
	}
	if err == nil {
		err = cw.Close()
	}
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(h, "%d %+v\n", c.TestsWithoutTrace, c.Completeness)
	fmt.Fprintf(h, "%v\n%v\n", e.Inference.Operator, e.Inference.Links)
	fmt.Fprintf(h, "%d %d %v\n", e.Matching.Total, e.Matching.Degraded, e.Matching.ByTest)
	return h.Sum64()
}

func TestMain(m *testing.M) {
	code := m.Run()
	for _, check := range passive {
		if err := check(); err != nil {
			fmt.Fprintln(os.Stderr, "passivity check failed:", err)
			code = 1
		}
	}
	os.Exit(code)
}
