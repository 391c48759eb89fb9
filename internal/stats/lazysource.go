package stats

import "math/rand"

// The constants of math/rand's additive lagged-Fibonacci generator
// (rng.go): a 607-word register with a tap 273 words behind the feed,
// seeded from the Park–Miller LCG x' = 48271·x mod (2³¹−1).
const (
	rngLen      = 607
	rngTap      = 273
	lcgMod      = 1<<31 - 1
	lcgMul      = 48271
	lcgZeroSeed = 89482311 // what math/rand substitutes for a seed ≡ 0
	lcgSkip     = 20       // LCG steps math/rand discards before word 0
)

var (
	// lcgJump[i] holds 48271^j mod (2³¹−1) for the three LCG steps
	// j = 21+3i, 22+3i, 23+3i that math/rand's Seed spends on register
	// word i, so a word is three independent multiplications by the
	// seed instead of the tail of a 1,841-step serial chain.
	lcgJump [rngLen][3]uint64
	// rngCooked is math/rand's rngCooked table (the register state that
	// is XORed over the LCG output), recovered at init.
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for j := 0; j < lcgSkip; j++ {
		p = mulMod(p, lcgMul)
	}
	for i := range lcgJump {
		for k := range lcgJump[i] {
			p = mulMod(p, lcgMul)
			lcgJump[i][k] = p
		}
	}
	recoverCooked()
}

// recoverCooked inverts the first 607 outputs of rand.NewSource(1) back
// to its initial register v, then strips seed 1's LCG words off v to
// leave the cooked table. Draw k (1-based) stores and returns
// vec[feed] + vec[tap], with feed = 334−k and tap = 607−k (mod 607).
// Draws 274–607 add an untouched feed word to a tap word that draw
// k−273 overwrote with its output, so subtraction yields v[0..60] and
// v[334..606]; draws 1–273 add two untouched words, v[334−k] + v[607−k],
// and the second is known by then.
func recoverCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64 // 1-based
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	var v [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		feed := (rngLen - rngTap - k + rngLen) % rngLen
		v[feed] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngLen-rngTap-k] = out[k] - v[rngLen-k]
	}
	for i := range rngCooked {
		rngCooked[i] = v[i] ^ lcgWord(i, 1)
	}
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹ by Mersenne reduction:
// 2³¹ ≡ 1, so the high bits of the product fold onto the low 31.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lcgMod + p>>31
	if r >= lcgMod {
		r -= lcgMod
	}
	return r
}

// lcgWord is the LCG contribution to register word i under the reduced
// seed s: math/rand's (x₁<<40) ^ (x₂<<20) ^ x₃ with x_j = 48271^j·s.
func lcgWord(i int, s uint64) uint64 {
	m := &lcgJump[i]
	return mulMod(m[0], s)<<40 ^ mulMod(m[1], s)<<20 ^ mulMod(m[2], s)
}

// LazySource is a rand.Source64 whose draw stream is bit-identical to
// rand.NewSource(seed) for every seed, but whose Seed is O(1).
// math/rand's Seed runs 1,841 serial LCG steps to fill all 607 register
// words; a source re-seeded per short-lived consumer (one per campaign
// arrival, ~19 draws each) spends most of its time there. LazySource
// only reduces the seed. Draws 1–273 each read two register words that
// no earlier draw touched, so they compute those two words on first use
// from the seed by LCG jump-ahead. Draw 274 is the first to read a word
// an earlier draw wrote; it fills the 61 words still untouched, and from
// then on the generator is math/rand's lagged-Fibonacci step unchanged.
//
// A LazySource is not safe for concurrent use.
type LazySource struct {
	tap, feed int
	fresh     int    // lazy draws left, counting the filling draw 274
	seed      uint64 // the seed reduced into [1, 2³¹−1)
	vec       [rngLen]int64
}

// NewLazySource returns a LazySource seeded with seed.
func NewLazySource(seed int64) *LazySource {
	s := &LazySource{}
	s.Seed(seed)
	return s
}

// Seed resets the generator to the rand.NewSource(seed) state. It
// reduces the seed exactly as math/rand does, 0 and multiples of
// 2³¹−1 included.
func (s *LazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = lcgZeroSeed
	}
	s.seed = uint64(seed)
	s.fresh = rngTap + 1
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *LazySource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *LazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.fresh > 0 {
		s.materialize()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// materialize computes the register words the current draw reads for
// the first time since Seed.
func (s *LazySource) materialize() {
	s.fresh--
	if s.fresh > 0 {
		s.vec[s.feed] = s.word(s.feed)
		s.vec[s.tap] = s.word(s.tap)
		return
	}
	for i := 0; i < rngLen-2*rngTap; i++ {
		s.vec[i] = s.word(i)
	}
}

// word is register word i of the rand.NewSource state for s.seed.
func (s *LazySource) word(i int) int64 {
	return int64(lcgWord(i, s.seed) ^ rngCooked[i])
}
