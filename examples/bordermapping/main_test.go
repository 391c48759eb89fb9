package main

// Example pins the program's output: the run is deterministic, so
// any change to these bytes is a change in what the example shows.
func Example() {
	main()
	// Output:
	// VP bed-us: Comcast client 16.54.2.2
	// campaign: 348 traces to 348 routed prefixes
	//
	// border map: 137 AS-level, 155 router-level interconnections
	//   customer  AS=109  router=112
	//   provider  AS=1    router=2
	//   peer      AS=27   router=41
	//
	// validation: 137/137 inferred neighbors are true neighbors (100.0% precision)
	// ground truth has 151 non-sibling neighbors; campaign observed 90.7% of them
	//
	// (unobserved neighbors are mostly backup links BGP never prefers — a real VP
	//  has the same blind spot, which is §5's coverage argument in miniature)
}
