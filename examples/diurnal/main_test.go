package main

// Example pins the program's output: the run is deterministic, so
// any change to these bytes is a change in what the example shows.
func Example() {
	main()
	// Output:
	// corpus: 12000 NDT tests over 28 days
	//
	// === GTT Atlanta → AT&T (320 tests) ===
	// hour  mean±sd Mbps      samples
	//    0     7.7 ± 15.2        13
	//    2    20.1 ± 15.5        20
	//    4     9.9 ± 5.2          9
	//    6    19.9 ± 19.9         3
	//    8     6.0 ± 0.0          1
	//   10    25.7 ± 19.6         3
	//   12    12.2 ± 13.5         8
	//   14    11.8 ± 3.2          8
	//   16    10.7 ± 11.3        21
	//   18     0.9 ± 0.1         25
	//   20     0.7 ± 0.1         31
	//   22     0.8 ± 0.1         32
	// median drop 93%, mean drop 94%, peak CV 0.27 → congested=true
	// bias: night/evening sample ratio 0.37, thin hours [0 1 3 4 5 6 7 8 9 10 11 12 13 14 15 23], tests/client p90 4
	//
	// === GTT Atlanta → Comcast (493 tests) ===
	// hour  mean±sd Mbps      samples
	//    0    49.7 ± 31.9        40
	//    2    47.2 ± 25.1        24
	//    4    62.7 ± 44.9        13
	//    6    33.0 ± 14.2         3
	//    8    29.0 ± 11.8         3
	//   10    30.7 ± 25.7         2
	//   12    39.5 ± 27.7         9
	//   14    39.9 ± 20.4        12
	//   16    54.5 ± 42.2        25
	//   18    48.1 ± 29.7        32
	//   20    44.8 ± 28.6        41
	//   22    42.9 ± 19.7        39
	// median drop 4%, mean drop 20%, peak CV 0.58 → congested=false
	// bias: night/evening sample ratio 0.26, thin hours [3 4 5 6 7 8 9 10 11 12 13 14], tests/client p90 6
	//
	// Lesson (§6): the same 'diurnal dip' question has two different answers here —
	// one pair is saturated (deep drop, low peak variance), the other is a busy shared
	// medium (shallow dip, high variance) — and off-peak hours barely have samples.
}
