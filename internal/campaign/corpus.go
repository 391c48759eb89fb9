package campaign

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"throughputlab/internal/bdrmap"
	"throughputlab/internal/export"
	"throughputlab/internal/mapit"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// The offline tools' listing lengths: MAP-IT prints its busiest links,
// bdrmap its busiest borders.
const (
	mapitTop  = 30
	bdrmapTop = 20
)

// Ark collects the prefix campaign of the Ark VP labelled vp — one
// traceroute toward every routed prefix, the input of bdrmap and
// Table 3 — over the world s describes and publishes it to s.CorpusOut
// as one chunk. The corpus header's meta carries no test count: a
// prefix campaign schedules no NDT tests. A campaign interrupted
// through ctx publishes nothing.
func Ark(ctx context.Context, s Spec, vp string) error {
	if s.CorpusOut == "" {
		return fmt.Errorf("corpus ark requires -corpus-out FILE")
	}
	// The campaign opens its own tee: open's would record the scale's
	// NDT test count in the header, and a prefix campaign has none.
	out := s.CorpusOut
	s.CorpusOut = ""
	c, err := open(ctx, s, nil)
	if err != nil {
		return err
	}
	var host *topogen.ArkVP
	var labels []string
	for i := range c.world.ArkVPs {
		if c.world.ArkVPs[i].Label == vp {
			host = &c.world.ArkVPs[i]
		}
		labels = append(labels, c.world.ArkVPs[i].Label)
	}
	if host == nil {
		return fmt.Errorf("unknown VP %q (want one of %s)", vp, strings.Join(labels, ", "))
	}
	t, err := c.openTee(out, export.StreamMeta{Scale: s.Scale, Seed: s.Seed})
	if err != nil {
		return err
	}
	traces, err := platform.Campaign(ctx, c.world, host.Host.Endpoint,
		platform.RoutedPrefixTargets(c.world), traceroute.DefaultArtifacts(), s.Seed+100)
	if err != nil {
		return t.seal(err)
	}
	fmt.Fprintf(os.Stderr, "campaign from %s (%s): %d traces\n", host.Label, host.ISP, len(traces))
	// An interrupt that arrived after the last traceroute discards the
	// corpus here.
	return t.seal(cmp.Or(context.Cause(ctx), t.write(&platform.Chunk{Traces: traces})))
}

// MapIt runs MAP-IT over the persisted corpus at path, reading each
// chunk once on workers decoders, and renders the inferred IP-level
// interdomain links, busiest first.
func MapIt(path string, workers int) (string, error) {
	r, err := openReader(path, workers)
	if err != nil {
		return "", err
	}
	inf, err := infer(r, lookups(r), workers, nil)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "interfaces labeled: %d; interdomain IP links inferred: %d\n\n",
		len(inf.Operator), len(inf.Links))
	fmt.Fprintf(&b, "%-18s %-18s %-10s %-10s %s\n", "near", "far", "nearAS", "farAS", "traces")
	for _, l := range inf.Links[:min(mapitTop, len(inf.Links))] {
		fmt.Fprintf(&b, "%-18v %-18v AS%-8d AS%-8d %d\n", l.Near, l.Far, l.NearAS, l.FarAS, l.Traces)
	}
	return b.String(), nil
}

// Bdrmap infers the interdomain borders of the organization named org
// from the persisted corpus at path — typically an Ark prefix campaign
// (Ark) from one of the org's VPs — and renders them by relationship
// and by traceroute volume. The corpus is read once: each chunk's
// traces feed MAP-IT and the path recorder, and the recorded paths are
// folded once MAP-IT is sealed. No alias resolver is available offline,
// so router-level counts are distinct interface pairs.
func Bdrmap(path, org string, workers int) (string, error) {
	r, err := openReader(path, workers)
	if err != nil {
		return "", err
	}
	orgs := r.Public().Orgs
	if org == "" {
		r.close()
		return "", fmt.Errorf("-org is required; available orgs: %d entries in the corpus", len(orgs))
	}
	asns := orgs[org]
	if len(asns) == 0 {
		r.close()
		names := make([]string, 0, len(orgs))
		for n := range orgs {
			names = append(names, n)
		}
		if len(names) == 0 {
			return "", fmt.Errorf("unknown org %q", org)
		}
		return "", fmt.Errorf("unknown org %q (e.g. %q)", org, slices.Min(names))
	}
	lk := lookups(r)
	var rec bdrmap.Recorder
	inf, err := infer(r, lk, workers, rec.Add)
	if err != nil {
		return "", err
	}
	acc := bdrmap.NewAnalyzerFromInference(inf, bdrmap.Opts{OrgASNs: asns, Rel: lk.Rel}).NewBorderAccumulator()
	acc.AddRecorded(&rec)
	res := acc.Result()

	var b strings.Builder
	fmt.Fprintf(&b, "org %s (ASNs %v)\n", org, asns)
	fmt.Fprintf(&b, "AS-level borders: %d; router/interface-level: %d\n", res.ASCount, res.RouterCount)
	for _, rel := range []topology.Rel{topology.RelCustomer, topology.RelProvider, topology.RelPeer, topology.RelNone} {
		if e := res.ByRel[rel]; e.AS > 0 {
			fmt.Fprintf(&b, "  %-9s AS=%d router=%d\n", rel, e.AS, e.Router)
		}
	}
	b.WriteString("\nborders by traceroute volume:\n")
	bs := res.Borders
	sort.Slice(bs, func(i, j int) bool { return bs[i].Traces > bs[j].Traces })
	for _, bd := range bs[:min(bdrmapTop, len(bs))] {
		fmt.Fprintf(&b, "  AS%-8d %-9s routers=%d traces=%d\n", bd.Neighbor, bd.Rel, bd.RouterPairs, bd.Traces)
	}
	return b.String(), nil
}

// Dump prints the persisted corpus at path to w as the
// tputlab-corpus/1 NDJSON stream, for jq, decoding on workers.
func Dump(path string, workers int, w io.Writer) error {
	r, err := openReader(path, workers)
	if err != nil {
		return err
	}
	defer r.close()
	bw := bufio.NewWriterSize(w, 1<<20)
	err = export.Dump(bw, r)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

// lookups are the public lookups of r's corpus header.
func lookups(r *corpusReader) *export.Lookups {
	return (&export.Dataset{Public: *r.Public()}).Lookups()
}

// infer replays r once, folding every chunk's traces into MAP-IT over
// lk on workers and, when also is set, handing them to it too, and
// returns the sealed inference. A corpus without traceroutes is an
// error: there is nothing to infer from.
func infer(r *corpusReader, lk *export.Lookups, workers int, also func([]*traceroute.Trace)) (*mapit.Inference, error) {
	mopts := lk.MapItOpts()
	mopts.Workers = workers
	b := mapit.NewBuilder(mopts)
	traces := 0
	_, err := r.replay(context.Background(), func(ch *platform.Chunk) error {
		b.Add(ch.Traces)
		if also != nil {
			also(ch.Traces)
		}
		traces += len(ch.Traces)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if traces == 0 {
		return nil, fmt.Errorf("corpus has no traceroutes")
	}
	return b.Finish(), nil
}
