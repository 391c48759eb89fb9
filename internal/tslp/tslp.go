// Package tslp implements time-series latency probing (Luckie et al.,
// "Challenges in Inferring Internet Interdomain Congestion", IMC 2014 —
// reference [25]), the technique the reproduced paper recommends
// measurement platforms adopt (§7): instead of bandwidth-hungry
// throughput tests, send tiny periodic probes to the NEAR and FAR
// interfaces of an interdomain link and watch the far−near RTT
// difference over days. A link whose buffer fills during peak hours
// shows a sustained diurnal elevation of that difference; an idle or
// merely busy link does not. TSLP needs path/interface knowledge (from
// bdrmap/MAP-IT) but only bytes per probe — which is why Ark, BISmark
// and RIPE Atlas can run it while they cannot host NDT (§7).
package tslp

import (
	"math"
	"math/rand"

	"throughputlab/internal/core"
	"throughputlab/internal/netsim"
	"throughputlab/internal/stats"
	"throughputlab/internal/topology"
)

// Sample is one probe round: RTTs to both sides of the link.
type Sample struct {
	Minute    int
	NearRTTms float64
	FarRTTms  float64
}

// Diff returns the far−near difference, the congestion-sensitive part.
func (s Sample) Diff() float64 { return s.FarRTTms - s.NearRTTms }

// Prober collects samples against the fluid link model.
type Prober struct {
	Model *netsim.Model
	// BasePathRTTms is the probe RTT from the vantage point to the
	// link's near interface at idle.
	BasePathRTTms float64
	// NoiseMs is per-probe jitter (standard deviation).
	NoiseMs float64
}

// Probe measures both sides of the link at the given minute.
func (p *Prober) Probe(l *topology.Link, minute int, rng *rand.Rand) Sample {
	return p.probeAt(minute, p.Model.LinkQueueMs(l, minute), rng)
}

// probeAt is Probe given the link's queueing delay at that minute. It
// draws the near probe's jitter before the far probe's.
func (p *Prober) probeAt(minute int, queueMs float64, rng *rand.Rand) Sample {
	noise := func() float64 {
		if p.NoiseMs <= 0 || rng == nil {
			return 0
		}
		return math.Abs(rng.NormFloat64() * p.NoiseMs)
	}
	near := p.BasePathRTTms + noise()
	// The far probe crosses the link: serialization + the link's queue.
	far := p.BasePathRTTms + 0.2 + queueMs + noise()
	return Sample{Minute: minute, NearRTTms: near, FarRTTms: far}
}

// Collect runs a campaign: one probe round every intervalMin minutes
// for the given number of days.
func (p *Prober) Collect(l *topology.Link, days, intervalMin int, rng *rand.Rand) []Sample {
	var out []Sample
	for m := 0; m < days*24*60; m += intervalMin {
		out = append(out, p.Probe(l, m, rng))
	}
	return out
}

// Result is the level-shift analysis of one link's sample series.
type Result struct {
	// PeakDiffMs and OffDiffMs are the median far−near differences in
	// the local peak and off-peak windows of core.ProbeWindows.
	PeakDiffMs, OffDiffMs float64
	// ElevationMs = peak − off.
	ElevationMs float64
	// Congested is the verdict: sustained diurnal elevation above the
	// threshold.
	Congested bool
	// Samples analyzed.
	Samples int
}

// Config holds analysis parameters.
type Config struct {
	// ElevationThresholdMs is the minimum diurnal far−near elevation
	// treated as evidence of a saturated buffer. It must sit above the
	// few-millisecond queueing that busy-but-healthy links build at
	// peak (the §6.2 gray zone) and below bufferbloat scale; Luckie et
	// al. look for sustained level shifts well above noise.
	ElevationThresholdMs float64
}

// DefaultConfig returns the standard threshold.
func DefaultConfig() Config { return Config{ElevationThresholdMs: 20} }

// Analyze performs the diurnal level-shift comparison. localHour maps a
// sample's minute to the link's local hour.
func Analyze(samples []Sample, localHour func(minute int) float64, cfg Config) Result {
	if cfg.ElevationThresholdMs == 0 {
		cfg = DefaultConfig()
	}
	var w windows
	for _, s := range samples {
		w.add(localHour(s.Minute), s.Diff())
	}
	return w.result(len(samples), cfg)
}

// windows gathers one link's far−near differences by diurnal window.
type windows struct{ peak, off []float64 }

func (w *windows) add(localHour, diff float64) {
	switch {
	case core.ProbeWindows.Peak.In(localHour):
		w.peak = append(w.peak, diff)
	case core.ProbeWindows.Off.In(localHour):
		w.off = append(w.off, diff)
	}
}

// result compares the two windows, then empties them (keeping their
// storage) for the next link.
func (w *windows) result(samples int, cfg Config) Result {
	r := Result{Samples: samples}
	if len(w.peak) > 0 && len(w.off) > 0 {
		r.PeakDiffMs = stats.Median(w.peak)
		r.OffDiffMs = stats.Median(w.off)
		r.ElevationMs = r.PeakDiffMs - r.OffDiffMs
		r.Congested = r.ElevationMs >= cfg.ElevationThresholdMs
	}
	w.peak, w.off = w.peak[:0], w.off[:0]
	return r
}

// Survey probes every given link and returns per-link results, the
// batch mode a platform-side deployment would run across all
// interconnections found by bdrmap. Each link is probed on Collect's
// cadence and analyzed in its metro's local time, drawing from rng in
// the order per-link Collect calls would, so the results equal
// Analyze(p.Collect(l, …), …) link by link. The local hour and diurnal
// shape of each probe minute depend only on the metro's UTC offset, so
// they are computed once per offset, not once per link.
func Survey(p *Prober, links []*topology.Link, days, intervalMin int, cfg Config, rng *rand.Rand) map[topology.LinkID]Result {
	if cfg.ElevationThresholdMs == 0 {
		cfg = DefaultConfig()
	}
	var minutes []int
	for m := 0; m < days*24*60; m += intervalMin {
		minutes = append(minutes, m)
	}
	type zone struct{ hour, shape []float64 }
	zones := map[int]zone{}
	var w windows
	out := make(map[topology.LinkID]Result, len(links))
	for _, l := range links {
		metro := p.Model.LinkMetro(l)
		z, ok := zones[metro.UTCOffset]
		if !ok {
			z = zone{make([]float64, len(minutes)), make([]float64, len(minutes))}
			for i, m := range minutes {
				z.hour[i] = metro.LocalHour(m)
				z.shape[i] = netsim.DiurnalShape(z.hour[i])
			}
			zones[metro.UTCOffset] = z
		}
		for i, m := range minutes {
			s := p.probeAt(m, netsim.LinkQueueMsAtShape(l, z.shape[i]), rng)
			w.add(z.hour[i], s.Diff())
		}
		out[l.ID] = w.result(len(minutes), cfg)
	}
	return out
}
