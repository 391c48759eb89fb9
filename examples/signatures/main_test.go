package main

// Example pins the program's output: the run is deterministic, so
// any change to these bytes is a change in what the example shows.
func Example() {
	main()
	// Output:
	// Two speed tests with similar-looking 'slow' outcomes can have opposite causes:
	//
	// flow crossing an ALREADY-CONGESTED interconnection:
	//   AT&T → GTT server, 0.9 Mbps
	//   minRTT 112.0 ms, meanRTT 113.5 ms → self-inflation 1%; loss 2.281%
	//   verdict: external-congestion (truth: external-congestion)
	//
	// flow that FILLED ITS OWN access bottleneck:
	//   Verizon → GTT server, 129.4 Mbps
	//   minRTT 7.1 ms, meanRTT 15.0 ms → self-inflation 112%; loss 0.001%
	//   verdict: self-induced (truth: self-induced)
	//
	// evaluated 2445 peak-hour tests: accuracy 100.0% on the 86% that got a verdict
	//
	// The classifier uses only minRTT, meanRTT and the retransmission rate —
	// fields NDT already logs. §7 proposes deploying exactly this on M-Lab, so
	// speed tests could report not just 'how fast' but 'who owned the queue'.
}
