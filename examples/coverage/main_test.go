package main

// Example pins the program's output: the run is deterministic, so
// any change to these bytes is a change in what the example shows.
func Example() {
	main()
	// Output:
	// VP mnz-us (Verizon, wdc)
	//
	// bdrmap finds 54 AS-level interconnections (73 router-level)
	//   testable via M-Lab servers:       5  (9.3%)
	//   testable via Speedtest servers:  12  (22.2%)
	//   on paths to popular content:     14
	//
	// content-path interconnections NOT testable via M-Lab: 9/14 (64%)
	//
	// → §7's recommendation: place servers topology-aware, not just latency-aware,
	//   or congestion claims only speak for a thin slice of the interconnection fabric.
}
