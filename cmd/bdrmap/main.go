// Command bdrmap infers the interdomain borders of a vantage-point
// network from a prefix-campaign dataset (cmd/ndtsim -campaign), the
// analysis behind Table 3.
//
// Usage:
//
//	ndtsim -campaign bed-us -o bed.tpc
//	bdrmap -in bed.tpc -org "Comcast Cable Communications"
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"throughputlab/internal/bdrmap"
	"throughputlab/internal/export"
	"throughputlab/internal/topology"
)

func main() {
	in := flag.String("in", "-", "input campaign dataset (- = stdin)")
	org := flag.String("org", "", "VP organization name (as in the dataset's org table)")
	top := flag.Int("top", 20, "borders to print per relationship class (0 = all)")
	flag.Parse()

	if err := run(*in, *org, *top); err != nil {
		fmt.Fprintln(os.Stderr, "bdrmap:", err)
		os.Exit(1)
	}
}

func run(in, orgName string, top int) error {
	f := os.Stdin
	if in != "-" {
		var err error
		f, err = os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	ds, err := export.Read(f)
	if err != nil {
		return err
	}
	if orgName == "" {
		return fmt.Errorf("-org is required; available orgs: %d entries in the dataset", len(ds.Public.Orgs))
	}
	orgASNs := ds.Public.Orgs[orgName]
	if len(orgASNs) == 0 {
		names := make([]string, 0, len(ds.Public.Orgs))
		for n := range ds.Public.Orgs {
			names = append(names, n)
		}
		sort.Strings(names)
		hint := ""
		if len(names) > 0 {
			hint = fmt.Sprintf(" (e.g. %q)", names[0])
		}
		return fmt.Errorf("unknown org %q%s", orgName, hint)
	}
	lk := ds.Lookups()
	res := bdrmap.Run(ds.Traces, bdrmap.Opts{
		OrgASNs: orgASNs,
		MapIt:   lk.MapItOpts(),
		Rel: func(n topology.ASN) topology.Rel {
			for _, o := range orgASNs {
				if r := lk.Rel(o, n); r != topology.RelNone {
					return r
				}
			}
			return topology.RelNone
		},
		// No alias resolver without a live VP: router-level counts fall
		// back to distinct interface pairs.
	})

	fmt.Printf("org %s (ASNs %v)\n", orgName, orgASNs)
	fmt.Printf("AS-level borders: %d; router/interface-level: %d\n", res.ASCount, res.RouterCount)
	for _, rel := range []topology.Rel{topology.RelCustomer, topology.RelProvider, topology.RelPeer, topology.RelNone} {
		e := res.ByRel[rel]
		if e.AS == 0 {
			continue
		}
		fmt.Printf("  %-9s AS=%d router=%d\n", rel, e.AS, e.Router)
	}
	fmt.Println("\nborders by traceroute volume:")
	borders := append([]bdrmap.Border(nil), res.Borders...)
	sort.Slice(borders, func(i, j int) bool { return borders[i].Traces > borders[j].Traces })
	n := len(borders)
	if top > 0 && top < n {
		n = top
	}
	for _, b := range borders[:n] {
		fmt.Printf("  AS%-8d %-9s routers=%d traces=%d\n", b.Neighbor, b.Rel, b.RouterPairs, b.Traces)
	}
	return nil
}
