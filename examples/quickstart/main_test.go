package main

// Example pins the program's output: the run is deterministic, so
// any change to these bytes is a change in what the example shows.
func Example() {
	main()
	// Output:
	// world: 199 ASes, 5387 links, 20 M-Lab servers
	// client 16.61.10.2 (AT&T, atl) → server ndt-atl01.gtt-1 in GTT
	//
	// hour  down Mbps  RTT ms  retrans
	//    0       1.45    97.3  0.0144
	//    3      17.48    73.8  0.0000
	//    6      17.75    64.7  0.0000
	//    9      18.00    63.3  0.0000
	//   12      17.23    66.4  0.0000
	//   15      18.00    72.1  0.0000
	//   18       1.32    97.3  0.0144
	//   21       0.86   106.7  0.0270
	//
	// peak median 0.85 Mbps, off-peak 18.00 Mbps, drop 95%
	// verdict: path shows peak-hour congestion (but WHERE it is congested needs path data — see examples/tomography)
}
