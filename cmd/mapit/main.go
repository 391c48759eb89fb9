// Command mapit runs the MAP-IT interdomain-link inference over a
// dataset produced by cmd/ndtsim, printing the inferred IP-level
// interdomain links sorted by traceroute count.
//
// Usage:
//
//	ndtsim -tests 5000 -o corpus.tpc
//	mapit -in corpus.tpc [-top 30] [-threshold 0.5]
package main

import (
	"flag"
	"fmt"
	"os"

	"throughputlab/internal/export"
	"throughputlab/internal/mapit"
)

func main() {
	in := flag.String("in", "-", "input dataset (- = stdin)")
	top := flag.Int("top", 30, "how many links to print (0 = all)")
	threshold := flag.Float64("threshold", 0.5, "MAP-IT majority threshold f")
	flag.Parse()

	if err := run(*in, *top, *threshold); err != nil {
		fmt.Fprintln(os.Stderr, "mapit:", err)
		os.Exit(1)
	}
}

func run(in string, top int, threshold float64) error {
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
	if len(ds.Traces) == 0 {
		return fmt.Errorf("dataset has no traceroutes")
	}
	opts := ds.Lookups().MapItOpts()
	opts.Threshold = threshold
	inf := mapit.Run(ds.Traces, opts)

	fmt.Printf("interfaces labeled: %d; interdomain IP links inferred: %d\n\n",
		len(inf.Operator), len(inf.Links))
	fmt.Printf("%-18s %-18s %-10s %-10s %s\n", "near", "far", "nearAS", "farAS", "traces")
	n := len(inf.Links)
	if top > 0 && top < n {
		n = top
	}
	for _, l := range inf.Links[:n] {
		fmt.Printf("%-18v %-18v AS%-8d AS%-8d %d\n", l.Near, l.Far, l.NearAS, l.FarAS, l.Traces)
	}
	return nil
}
