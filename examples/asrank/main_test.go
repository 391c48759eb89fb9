package main

// Example pins the program's output: the run is deterministic, so
// any change to these bytes is a change in what the example shows.
func Example() {
	main()
	// Output:
	// collector feeds: 3960 AS paths from 20 vantage networks
	//
	// classified 859 adjacencies:
	//   truly customer    600 edges,  89.3% inferred correctly
	//   truly provider      7 edges,  57.1% inferred correctly
	//   truly peer        230 edges,  87.4% inferred correctly
	//   truly sibling      22 edges,   0.0% inferred correctly
	//   overall: 86.3%
	//
	// spot checks:
	//   Level3–GTT (transit mesh)    inferred peer      truth peer
	//   Level3–Comcast               inferred peer      truth peer
	//   GTT–AT&T                     inferred none      truth peer
	//
	// With inferred (not ground-truth) relationships, bdrmap's Table 3 split and
	// Figure 3's peer filter run exactly as the paper ran them against CAIDA data.
}
