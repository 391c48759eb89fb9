// Package asrank infers AS business relationships from observed AS
// paths, in the style of CAIDA's AS-rank dataset (Gao's classic
// algorithm refined by Luckie et al.). The reproduced paper consumes
// exactly this dataset — "AS-relationship inferences from CAIDA's
// AS-rank algorithm" feed both bdrmap's annotations (§5.1) and the
// peer/customer split of Figure 3 — so the pipeline should be able to
// run end-to-end without ground-truth relationships.
//
// The algorithm, on a corpus of route-collector AS paths:
//
//  1. Degree: count distinct neighbors per AS across all paths.
//  2. Votes: each path has a "top" (its highest-degree AS). Edges
//     before the top point uphill (customer→provider), edges after
//     point downhill; each crossing votes for the implied
//     provider-customer orientation.
//  3. Peaks: the edge joining the path's two highest-degree members is
//     a peering candidate (valley-freeness puts a peer link only at
//     the top).
//  4. Classification: an edge that is a peak in most of its
//     appearances, between ASes of comparable degree, is a peer;
//     otherwise the vote majority sets the provider side; balanced
//     two-sided votes mean siblings.
package asrank

import (
	"sort"

	"throughputlab/internal/topology"
)

// Result holds the inferred relationships.
type Result struct {
	// Degree is the observed neighbor count per AS.
	Degree map[topology.ASN]int

	rels map[[2]topology.ASN]topology.Rel
}

// Config tunes the classifier.
type Config struct {
	// PeakFrac: minimum fraction of an edge's appearances at path
	// peaks to consider it a peering candidate.
	PeakFrac float64
	// MaxDegreeRatio: maximum degree ratio between peering candidates.
	MaxDegreeRatio float64
	// SiblingBalance: vote balance (minority/majority) above which a
	// two-sided edge is called sibling rather than provider-customer.
	SiblingBalance float64
}

// DefaultConfig returns the standard parameters.
func DefaultConfig() Config {
	return Config{PeakFrac: 0.8, MaxDegreeRatio: 60, SiblingBalance: 0.5}
}

type edge = [2]topology.ASN

func norm(a, b topology.ASN) edge {
	if a > b {
		a, b = b, a
	}
	return edge{a, b}
}

// Infer runs the algorithm over the path corpus.
func Infer(paths [][]topology.ASN, cfg Config) *Result {
	if cfg.PeakFrac == 0 {
		cfg = DefaultConfig()
	}
	res := &Result{
		Degree: map[topology.ASN]int{},
		rels:   map[edge]topology.Rel{},
	}

	// 1. Degrees from distinct adjacencies.
	neighbors := map[topology.ASN]map[topology.ASN]bool{}
	addAdj := func(a, b topology.ASN) {
		if neighbors[a] == nil {
			neighbors[a] = map[topology.ASN]bool{}
		}
		neighbors[a][b] = true
	}
	for _, p := range paths {
		for i := 1; i < len(p); i++ {
			addAdj(p[i-1], p[i])
			addAdj(p[i], p[i-1])
		}
	}
	for asn, ns := range neighbors {
		res.Degree[asn] = len(ns)
	}

	// 2+3. Votes and peak counts.
	// provVotes[e] counts paths asserting e[1] is the provider of e[0]
	// when the edge is stored as (customer, provider) in normalized
	// orientation bookkeeping below.
	type votes struct {
		// provHi: votes that the higher-ASN side is the provider.
		provHi, provLo int
		peak, total    int
	}
	tally := map[edge]*votes{}
	get := func(e edge) *votes {
		v := tally[e]
		if v == nil {
			v = &votes{}
			tally[e] = v
		}
		return v
	}
	for _, p := range paths {
		if len(p) < 2 {
			continue
		}
		// Path top by degree.
		top := 0
		for i, a := range p {
			if res.Degree[a] > res.Degree[p[top]] {
				top = i
			}
		}
		// Peak edge: the top and its larger-degree neighbor.
		peakIdx := -1
		switch {
		case top == 0 && len(p) > 1:
			peakIdx = 0
		case top == len(p)-1:
			peakIdx = top - 1
		case res.Degree[p[top+1]] >= res.Degree[p[top-1]]:
			peakIdx = top
		default:
			peakIdx = top - 1
		}
		for i := 1; i < len(p); i++ {
			u, w := p[i-1], p[i]
			e := norm(u, w)
			v := get(e)
			v.total++
			if i-1 == peakIdx {
				v.peak++
			}
			// Uphill before the top: w is u's provider. Downhill after:
			// u is w's provider.
			var provider topology.ASN
			if i <= top {
				provider = w
			} else {
				provider = u
			}
			if provider == e[1] {
				v.provHi++
			} else {
				v.provLo++
			}
		}
	}

	// 4. Classification.
	for e, v := range tally {
		hiDeg, loDeg := res.Degree[e[1]], res.Degree[e[0]]
		ratio := float64(hiDeg) / float64(max(loDeg, 1))
		if ratio < 1 {
			ratio = 1 / ratio
		}
		isPeak := float64(v.peak)/float64(v.total) >= cfg.PeakFrac
		if isPeak && ratio <= cfg.MaxDegreeRatio {
			res.rels[e] = topology.RelPeer
			continue
		}
		maj, min := v.provHi, v.provLo
		if min > maj {
			maj, min = min, maj
		}
		if maj > 0 && float64(min)/float64(maj) >= cfg.SiblingBalance {
			res.rels[e] = topology.RelSibling
			continue
		}
		// One-sided: provider is the majority side. Stored from the
		// perspective of e[0] (the lower ASN).
		if v.provHi >= v.provLo {
			res.rels[e] = topology.RelProvider // e[1] is e[0]'s provider
		} else {
			res.rels[e] = topology.RelCustomer // e[1] is e[0]'s customer
		}
	}
	return res
}

// Rel returns the inferred relationship of b as seen from a (RelNone
// when the pair was never observed adjacent).
func (r *Result) Rel(a, b topology.ASN) topology.Rel {
	e := norm(a, b)
	rel, ok := r.rels[e]
	if !ok {
		return topology.RelNone
	}
	if rel == topology.RelPeer || rel == topology.RelSibling {
		return rel
	}
	if a == e[0] {
		return rel
	}
	return rel.Invert()
}

// Edges returns all classified adjacencies in deterministic order.
func (r *Result) Edges() []struct {
	A, B topology.ASN
	Rel  topology.Rel
} {
	out := make([]struct {
		A, B topology.ASN
		Rel  topology.Rel
	}, 0, len(r.rels))
	for e, rel := range r.rels {
		out = append(out, struct {
			A, B topology.ASN
			Rel  topology.Rel
		}{e[0], e[1], rel})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
