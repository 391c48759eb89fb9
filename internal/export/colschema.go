// The corpus schema: every stripe of a tputlab-corpus/2 chunk, declared
// once. A stripe's field id is its position in its table plus the
// table's first id (tests from 1, traces from 64), so tables only ever
// append. Each entry names the encodings the writer may emit and the
// one field accessor both directions share; the writer's stripe
// emission, the reader's dispatch and its duplicate, encoding, order
// and completeness checks all walk these tables.
package export

import (
	"encoding/binary"
	"fmt"
	"math"

	"throughputlab/internal/ndt"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/netsim"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// stripeDef is one corpus stripe.
type stripeDef struct {
	encs  uint8  // bit e set: the writer may emit encoding e
	needs uint64 // table positions that must decode first (a lengths stripe)
	// put appends the stripe body for a chunk's rows and names its
	// encoding; get decodes a body into the decoder's slabs.
	put func(b []byte, c *chunkRows, sc *colScratch) ([]byte, byte)
	get func(r *colReader, enc byte, d *chunkDecoder) error
}

// stripeTable is one family's stripes, in field-id order.
type stripeTable struct {
	name  string
	first uint64 // field id of defs[0]
	defs  []stripeDef
}

// stripeTables are the two column families, tests then traces; a
// chunk's stripes follow this order.
var stripeTables = [2]stripeTable{{"test", 1, testStripes}, {"trace", 64, traceStripes}}

// chunkRows is the writer's view of one chunk: its rows, with every
// trace's hops flattened by pointer.
type chunkRows struct {
	tests  []*ndt.Test
	traces []*traceroute.Trace
	hops   []*traceroute.Hop
}

// family selects one kind of row on both sides of the codec: the rows
// the writer encodes and the slab the reader decodes into. needs is
// every stripe's order requirement (the hop lengths, for hops).
type family[R any] struct {
	enc   func(*chunkRows) []*R
	dec   func(*chunkDecoder) []R
	needs uint64
}

var (
	testRows = family[ndt.Test]{
		enc: func(c *chunkRows) []*ndt.Test { return c.tests },
		dec: func(d *chunkDecoder) []ndt.Test { return d.tests },
	}
	traceRows = family[traceroute.Trace]{
		enc: func(c *chunkRows) []*traceroute.Trace { return c.traces },
		dec: func(d *chunkDecoder) []traceroute.Trace { return d.traces },
	}
)

// testStripes are the ndt.Test stripes, field ids 1–38; each truth
// list is a lengths stripe and a values stripe.
var testStripes = func() []stripeDef {
	tab := []stripeDef{
		deltaCol(testRows, func(t *ndt.Test) *int { return &t.ID }),
		u32Col(testRows, func(t *ndt.Test) *netaddr.Addr { return &t.ClientAddr }),
		varintCol(testRows, func(t *ndt.Test) *topology.ASN { return &t.ClientASN }),
		strDictCol(testRows, func(t *ndt.Test) *string { return &t.ClientISP }),
		strDictCol(testRows, func(t *ndt.Test) *string { return &t.ClientMetro }),
		adaptiveFloatCol(testRows, func(t *ndt.Test) *float64 { return &t.TierMbps }),
		adaptiveFloatCol(testRows, func(t *ndt.Test) *float64 { return &t.WiFiCapMbps }),
		intDictCol(testRows, func(t *ndt.Test) *netaddr.Addr { return &t.ServerAddr }),
		intDictCol(testRows, func(t *ndt.Test) *topology.ASN { return &t.ServerASN }),
		strDictCol(testRows, func(t *ndt.Test) *string { return &t.ServerSite }),
		strDictCol(testRows, func(t *ndt.Test) *string { return &t.ServerNet }),
		strDictCol(testRows, func(t *ndt.Test) *string { return &t.ServerMetro }),
		deltaCol(testRows, func(t *ndt.Test) *int { return &t.StartMinute }),
		u32Col(testRows, func(t *ndt.Test) *uint32 { return &t.FlowEntropy }),
		floatCol(testRows, func(t *ndt.Test) *float64 { return &t.DownMbps }),
		floatCol(testRows, func(t *ndt.Test) *float64 { return &t.UpMbps }),
		floatCol(testRows, func(t *ndt.Test) *float64 { return &t.RTTms }),
		floatCol(testRows, func(t *ndt.Test) *float64 { return &t.RTTMinMs }),
		floatCol(testRows, func(t *ndt.Test) *float64 { return &t.RetransRate }),
		adaptiveFloatCol(testRows, func(t *ndt.Test) *float64 { return &t.Web100.DurationSec }),
		varintCol(testRows, func(t *ndt.Test) *int64 { return &t.Web100.HCThruOctetsAcked }),
		varintCol(testRows, func(t *ndt.Test) *int64 { return &t.Web100.SegsOut }),
		varintCol(testRows, func(t *ndt.Test) *int64 { return &t.Web100.SegsRetrans }),
		varintCol(testRows, func(t *ndt.Test) *int { return &t.Web100.CongSignals }),
		floatCol(testRows, func(t *ndt.Test) *float64 { return &t.Web100.MinRTTms }),
		floatCol(testRows, func(t *ndt.Test) *float64 { return &t.Web100.SmoothedRTTms }),
		varintCol(testRows, func(t *ndt.Test) *int { return &t.Web100.CurCwndBytes }),
		adaptiveFloatCol(testRows, func(t *ndt.Test) *float64 { return &t.Web100.SndLimTimeCwndFrac }),
		adaptiveFloatCol(testRows, func(t *ndt.Test) *float64 { return &t.Web100.SndLimTimeRwinFrac }),
		adaptiveFloatCol(testRows, func(t *ndt.Test) *float64 { return &t.Web100.SndLimTimeSenderFrac }),
		bitmapCol(testRows, func(t *ndt.Test) *bool { return &t.Truncated }),
		varintCol(testRows, func(t *ndt.Test) *netsim.BottleneckKind { return &t.TruthKind }),
		bitmapCol(testRows, func(t *ndt.Test) *bool { return &t.TruthSaturated }),
		varintCol(testRows, func(t *ndt.Test) *topology.LinkID { return &t.TruthBottleneck }),
	}
	tab = append(tab, listCols(testRows, len(tab), func(t *ndt.Test) *[]topology.LinkID { return &t.TruthInterLinks })...)
	return append(tab, listCols(testRows, len(tab), func(t *ndt.Test) *[]topology.ASN { return &t.TruthASPath })...)
}()

// traceStripes are the traceroute.Trace stripes, field ids 64–74.
var traceStripes = func() []stripeDef {
	tab := []stripeDef{
		u32Col(traceRows, func(t *traceroute.Trace) *netaddr.Addr { return &t.SrcAddr }),
		u32Col(traceRows, func(t *traceroute.Trace) *netaddr.Addr { return &t.DstAddr }),
		deltaCol(traceRows, func(t *traceroute.Trace) *int { return &t.LaunchMinute }),
		u32Col(traceRows, func(t *traceroute.Trace) *uint32 { return &t.FlowEntropy }),
		bitmapCol(traceRows, func(t *traceroute.Trace) *bool { return &t.Reached }),
		bitmapCol(traceRows, func(t *traceroute.Trace) *bool { return &t.Degraded }),
	}
	// Hops are flattened across the chunk behind the per-trace lengths
	// stripe, which sizes the hop slab the hop stripes decode into. A
	// chunk holds at most one hop per four payload bytes (the raw
	// address stripe).
	hops := family[traceroute.Hop]{
		enc:   func(c *chunkRows) []*traceroute.Hop { return c.hops },
		dec:   func(d *chunkDecoder) []traceroute.Hop { return d.hops },
		needs: 1 << len(tab),
	}
	return append(tab,
		lensCol(traceRows, func(t *traceroute.Trace) *[]traceroute.Hop { return &t.Hops },
			func(payload int) int { return payload/4 + 1 },
			func(d *chunkDecoder, slab []traceroute.Hop) { d.hops = slab }),
		varintCol(hops, func(h *traceroute.Hop) *int { return &h.TTL }),
		u32Col(hops, func(h *traceroute.Hop) *netaddr.Addr { return &h.Addr }),
		strDictCol(hops, func(h *traceroute.Hop) *string { return &h.DNSName }),
		floatCol(hops, func(h *traceroute.Hop) *float64 { return &h.RTTms }),
	)
}()

// integer is every integer kind a varint, delta or dictionary column
// stores.
type integer interface {
	~int | ~int64 | ~uint32
}

// deltaCol stores a monotone-ish integer field as zigzag varint deltas.
func deltaCol[R any, V integer](fam family[R], f func(*R) *V) stripeDef {
	return stripeDef{encs: 1 << encDelta, needs: fam.needs,
		put: func(b []byte, c *chunkRows, _ *colScratch) ([]byte, byte) {
			prev := int64(0)
			for _, row := range fam.enc(c) {
				v := int64(*f(row))
				b = binary.AppendUvarint(b, zigzag(v-prev))
				prev = v
			}
			return b, encDelta
		},
		get: func(r *colReader, _ byte, d *chunkDecoder) error {
			rows, prev := fam.dec(d), int64(0)
			for i := range rows {
				u, err := r.uvarint()
				if err != nil {
					return err
				}
				prev += unzigzag(u)
				*f(&rows[i]) = V(prev)
			}
			return nil
		}}
}

// varintCol stores an integer field as unsigned varints.
func varintCol[R any, V integer](fam family[R], f func(*R) *V) stripeDef {
	return stripeDef{encs: 1 << encVarint, needs: fam.needs,
		put: func(b []byte, c *chunkRows, _ *colScratch) ([]byte, byte) {
			for _, row := range fam.enc(c) {
				b = binary.AppendUvarint(b, uint64(*f(row)))
			}
			return b, encVarint
		},
		get: func(r *colReader, _ byte, d *chunkDecoder) error {
			rows := fam.dec(d)
			for i := range rows {
				v, err := r.uvarint()
				if err != nil {
					return err
				}
				*f(&rows[i]) = V(v)
			}
			return nil
		}}
}

// u32Col stores a 32-bit field (addresses, flow hashes) as raw
// little-endian words.
func u32Col[R any, V ~uint32](fam family[R], f func(*R) *V) stripeDef {
	return stripeDef{encs: 1 << encRaw, needs: fam.needs,
		put: func(b []byte, c *chunkRows, _ *colScratch) ([]byte, byte) {
			for _, row := range fam.enc(c) {
				b = binary.LittleEndian.AppendUint32(b, uint32(*f(row)))
			}
			return b, encRaw
		},
		get: func(r *colReader, _ byte, d *chunkDecoder) error {
			rows := fam.dec(d)
			b, err := r.take(4 * len(rows))
			if err != nil {
				return err
			}
			for i := range rows {
				*f(&rows[i]) = V(binary.LittleEndian.Uint32(b[4*i:]))
			}
			return nil
		}}
}

// bitmapCol stores a bool field bit-packed, LSB first.
func bitmapCol[R any](fam family[R], f func(*R) *bool) stripeDef {
	return stripeDef{encs: 1 << encBitmap, needs: fam.needs,
		put: func(b []byte, c *chunkRows, _ *colScratch) ([]byte, byte) {
			rows := fam.enc(c)
			start := len(b)
			b = append(b, make([]byte, (len(rows)+7)/8)...)
			for i, row := range rows {
				if *f(row) {
					b[start+i/8] |= 1 << (i % 8)
				}
			}
			return b, encBitmap
		},
		get: func(r *colReader, _ byte, d *chunkDecoder) error {
			rows := fam.dec(d)
			b, err := r.take((len(rows) + 7) / 8)
			if err != nil {
				return err
			}
			for i := range rows {
				*f(&rows[i]) = b[i/8]&(1<<(i%8)) != 0
			}
			return nil
		}}
}

// strDictCol stores a low-cardinality string field as a dictionary.
func strDictCol[R any](fam family[R], f func(*R) *string) stripeDef {
	return stripeDef{encs: 1 << encDict, needs: fam.needs,
		put: func(b []byte, c *chunkRows, sc *colScratch) ([]byte, byte) {
			sc.strs = sc.strs[:0]
			for _, row := range fam.enc(c) {
				sc.strs = append(sc.strs, *f(row))
			}
			return appendStringDict(b, sc.strs, sc.strDict), encDict
		},
		get: func(r *colReader, _ byte, d *chunkDecoder) error {
			table, err := r.stringTable()
			if err != nil {
				return err
			}
			return dictCodes(r, table, fam.dec(d), f)
		}}
}

// intDictCol stores a low-cardinality integer field (server addresses,
// ASNs) as a dictionary.
func intDictCol[R any, V integer](fam family[R], f func(*R) *V) stripeDef {
	return stripeDef{encs: 1 << encDict, needs: fam.needs,
		put: func(b []byte, c *chunkRows, sc *colScratch) ([]byte, byte) {
			sc.u64s = sc.u64s[:0]
			for _, row := range fam.enc(c) {
				sc.u64s = append(sc.u64s, uint64(*f(row)))
			}
			return appendIntDict(b, sc.u64s, sc.u64Dict), encDict
		},
		get: func(r *colReader, _ byte, d *chunkDecoder) error {
			table, err := intTable[V](r)
			if err != nil {
				return err
			}
			return dictCodes(r, table, fam.dec(d), f)
		}}
}

// floatCol stores a measured float field as its raw image.
func floatCol[R any](fam family[R], f func(*R) *float64) stripeDef {
	return stripeDef{encs: 1 << encRaw, needs: fam.needs,
		put: func(b []byte, c *chunkRows, _ *colScratch) ([]byte, byte) {
			for _, row := range fam.enc(c) {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*f(row)))
			}
			return b, encRaw
		},
		get: func(r *colReader, _ byte, d *chunkDecoder) error {
			return rawFloats(r, fam.dec(d), f)
		}}
}

// adaptiveFloatCol stores a float field as a dictionary or as its raw
// image, whichever the chunk's values make cheaper; the stripe's
// encoding byte says which.
func adaptiveFloatCol[R any](fam family[R], f func(*R) *float64) stripeDef {
	return stripeDef{encs: 1<<encRaw | 1<<encDict, needs: fam.needs,
		put: func(b []byte, c *chunkRows, sc *colScratch) ([]byte, byte) {
			sc.f64s = sc.f64s[:0]
			for _, row := range fam.enc(c) {
				sc.f64s = append(sc.f64s, *f(row))
			}
			return appendFloatColumn(b, sc.f64s, sc.u64Dict)
		},
		get: func(r *colReader, enc byte, d *chunkDecoder) error {
			if enc == encRaw {
				return rawFloats(r, fam.dec(d), f)
			}
			table, err := r.floatTable()
			if err != nil {
				return err
			}
			return dictCodes(r, table, fam.dec(d), f)
		}}
}

// rawFloats decodes one raw little-endian float64 per row into f.
func rawFloats[R any](r *colReader, rows []R, f func(*R) *float64) error {
	b, err := r.take(8 * len(rows))
	if err != nil {
		return err
	}
	for i := range rows {
		*f(&rows[i]) = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// lensCol is a list field's lengths stripe: one varint per row.
// Decoding it sizes one slab for the chunk's lists, at most
// limit(payload bytes) elements, and points each row's list into it;
// keep, if set, holds on to the slab for the element stripes.
func lensCol[R, E any](fam family[R], f func(*R) *[]E, limit func(int) int, keep func(*chunkDecoder, []E)) stripeDef {
	return stripeDef{encs: 1 << encVarint, needs: fam.needs,
		put: func(b []byte, c *chunkRows, _ *colScratch) ([]byte, byte) {
			for _, row := range fam.enc(c) {
				b = binary.AppendUvarint(b, uint64(len(*f(row))))
			}
			return b, encVarint
		},
		get: func(r *colReader, _ byte, d *chunkDecoder) error {
			rows := fam.dec(d)
			lens := make([]uint64, len(rows))
			total, budget := uint64(0), uint64(limit(d.budget))
			for i := range lens {
				v, err := r.uvarint()
				if err != nil {
					return err
				}
				// Checking v first keeps the sum from wrapping.
				if total += v; v > budget || total > budget {
					return fmt.Errorf("lengths total exceeds payload budget of %d", budget)
				}
				lens[i] = v
			}
			slab := make([]E, total)
			off := 0
			for i, l := range lens {
				if l > 0 {
					*f(&rows[i]) = slab[off : off+int(l) : off+int(l)]
					off += int(l)
				}
			}
			if keep != nil {
				keep(d, slab)
			}
			return nil
		}}
}

// listCols are the two stripes of an integer list field at table
// position pos: the lengths, then every row's values flattened as
// varints, which decode into the lists the lengths stripe sized. The
// lists share the chunk payload as their budget.
func listCols[R any, V integer](fam family[R], pos int, f func(*R) *[]V) []stripeDef {
	vals := stripeDef{encs: 1 << encVarint, needs: fam.needs | 1<<pos,
		put: func(b []byte, c *chunkRows, _ *colScratch) ([]byte, byte) {
			for _, row := range fam.enc(c) {
				for _, v := range *f(row) {
					b = binary.AppendUvarint(b, uint64(v))
				}
			}
			return b, encVarint
		},
		get: func(r *colReader, _ byte, d *chunkDecoder) error {
			rows := fam.dec(d)
			for i := range rows {
				list := *f(&rows[i])
				for j := range list {
					v, err := r.uvarint()
					if err != nil {
						return err
					}
					list[j] = V(v)
				}
			}
			return nil
		}}
	return []stripeDef{lensCol(fam, f, func(payload int) int { return payload }, nil), vals}
}
