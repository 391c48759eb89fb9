package main

// Example pins the program's output: the run is deterministic, so
// any change to these bytes is a change in what the example shows.
func Example() {
	main()
	// Output:
	// scenario: S→T→A (link t-a congested), S→T→B healthy
	//
	// 1) simplified AS-level tomography (no path data, M-Lab method):
	//    S–A interconnection: CONGESTED (40/40 bad)
	//    S–B interconnection: ok (4/40 bad)
	//    → it blames the 'S–A interconnection', a link that does not exist:
	//      S and A are two AS hops apart. Assumption 2 (§3.1) failed silently.
	//
	// 2) binary tomography over link-level paths (Duffield/SCFS):
	//    inferred bad links: [t-a home-b0 home-b10 home-b20 home-b30] (consistent=true, unexplained=0)
	//    → with path data, the shared s-t link is exonerated by B's good tests
	//      and the blame lands on t-a, where the congestion actually is.
	//
	// Recommendation (§7): every throughput test should carry a traceroute taken
	// close in time, so exactly this discrimination becomes possible.
}
