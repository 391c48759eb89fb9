// Column codec primitives for the binary columnar corpus format
// (tputlab-corpus/2). Each column of a chunk is one *stripe*: a small
// self-describing frame carrying the field id, the encoding, the
// payload length, the payload, and a CRC-32C of the payload. The
// encodings are the classic columnar trio:
//
//   - delta+varint for monotone-ish integer columns (test ids,
//     StartMinute, hop TTLs): zigzag so occasional regressions stay
//     cheap, one or two bytes per row in the common case;
//   - dictionary for low-cardinality columns (AS numbers, metros,
//     service tiers, server sites, PTR names): values appear once,
//     rows are varint codes;
//   - raw little-endian for the measurement samples themselves
//     (throughput, RTT, loss): floats do not compress with varints,
//     and a flat []float64 image decodes with one bounds check per
//     stripe instead of one parse per value.
//
// Everything here decodes from an in-memory frame with strict bounds
// checks: a truncated stripe, an oversized varint, a dictionary code
// past the table, or a row count that cannot fit the payload is an
// error, never a panic or an unbounded allocation (the fuzz targets in
// columnar_fuzz_test.go hold that line).
package export

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// castagnoli is the CRC-32C table every stripe and footer checksum
// uses (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stripe encodings.
const (
	encRaw    byte = 0 // flat little-endian values (float64 or uint32)
	encVarint byte = 1 // unsigned varints
	encDelta  byte = 2 // zigzag varint deltas from the previous row
	encDict   byte = 3 // dictionary table + varint codes
	encBitmap byte = 4 // bit-packed bools, LSB-first
)

// encName names an encoding in decode errors.
func encName(enc byte) string {
	switch enc {
	case encRaw:
		return "raw"
	case encVarint:
		return "varint"
	case encDelta:
		return "delta"
	case encDict:
		return "dict"
	case encBitmap:
		return "bitmap"
	}
	return fmt.Sprintf("enc%d", enc)
}

// zigzag folds signed values so small magnitudes of either sign stay
// short varints.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// --- encode side -----------------------------------------------------

// appendFloats appends vals as flat little-endian float64 bits.
func appendFloats(b []byte, vals []float64) []byte {
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// appendStringDict appends a string dictionary stripe payload: the
// table in first-appearance order (length-prefixed entries), then one
// varint code per row. First-appearance order makes the bytes a pure
// function of the column, so serial and worker encodes are identical.
func appendStringDict(b []byte, rows []string, scratch map[string]uint64) []byte {
	clear(scratch)
	var table []string
	for _, s := range rows {
		if _, ok := scratch[s]; !ok {
			scratch[s] = uint64(len(table))
			table = append(table, s)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(table)))
	for _, s := range table {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	for _, s := range rows {
		b = binary.AppendUvarint(b, scratch[s])
	}
	return b
}

// appendFloatColumn picks the cheaper of a float dictionary (table of
// distinct bit patterns + varint codes) and the raw image, returning
// the payload and the encoding it chose. Tier plans and web100 time
// fractions have a handful of distinct values; measured throughput has
// millions — the split keeps both near their entropy.
func appendFloatColumn(b []byte, rows []float64, scratch map[uint64]uint64) ([]byte, byte) {
	clear(scratch)
	var table []uint64
	for _, v := range rows {
		bits := math.Float64bits(v)
		if _, ok := scratch[bits]; !ok {
			if len(table) > len(rows)/4 || len(table) >= 1<<12 {
				// High cardinality: dict would cost more than raw.
				return appendFloats(b, rows), encRaw
			}
			scratch[bits] = uint64(len(table))
			table = append(table, bits)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(table)))
	for _, bits := range table {
		b = binary.LittleEndian.AppendUint64(b, bits)
	}
	for _, v := range rows {
		b = binary.AppendUvarint(b, scratch[math.Float64bits(v)])
	}
	return b, encDict
}

// appendIntDict appends an integer dictionary stripe payload (varint
// table + varint codes), for low-cardinality id columns (server
// addresses, ASNs).
func appendIntDict(b []byte, rows []uint64, scratch map[uint64]uint64) []byte {
	clear(scratch)
	var table []uint64
	for _, v := range rows {
		if _, ok := scratch[v]; !ok {
			scratch[v] = uint64(len(table))
			table = append(table, v)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(table)))
	for _, v := range table {
		b = binary.AppendUvarint(b, v)
	}
	for _, v := range rows {
		b = binary.AppendUvarint(b, scratch[v])
	}
	return b
}

// --- decode side -----------------------------------------------------

// colReader is a bounds-checked cursor over one frame's bytes. Every
// read error carries enough context to name the failure; none of the
// methods panic on any input.
type colReader struct {
	b   []byte
	off int
}

func (r *colReader) remaining() int { return len(r.b) - r.off }

// uvarint reads one unsigned varint, rejecting truncation and
// overlong (>10 byte / overflowing) encodings.
func (r *colReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			return 0, fmt.Errorf("truncated varint at offset %d", r.off)
		}
		return 0, fmt.Errorf("oversized varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// take returns the next n bytes without copying.
func (r *colReader) take(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("truncated: need %d bytes at offset %d, have %d", n, r.off, r.remaining())
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

// stringTable reads a string dictionary's table. Entries are
// materialized once and shared by every row that codes to them — the
// decode-side interning that makes PTR-name columns cheap.
func (r *colReader) stringTable() ([]string, error) {
	dn, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if dn > uint64(r.remaining()) {
		return nil, fmt.Errorf("dictionary of %d entries cannot fit %d payload bytes", dn, r.remaining())
	}
	table := make([]string, dn)
	for i := range table {
		sl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if sl > uint64(r.remaining()) {
			return nil, fmt.Errorf("dictionary entry of %d bytes cannot fit %d payload bytes", sl, r.remaining())
		}
		b, err := r.take(int(sl))
		if err != nil {
			return nil, err
		}
		table[i] = string(b)
	}
	return table, nil
}

// intTable reads an integer dictionary's table of varints.
func intTable[V integer](r *colReader) ([]V, error) {
	dn, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if dn > uint64(r.remaining()) {
		return nil, fmt.Errorf("dictionary of %d entries cannot fit %d payload bytes", dn, r.remaining())
	}
	table := make([]V, dn)
	for i := range table {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		table[i] = V(v)
	}
	return table, nil
}

// floatTable reads a float dictionary's table of raw float64 images.
func (r *colReader) floatTable() ([]float64, error) {
	dn, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if dn > uint64(r.remaining()/8)+1 {
		return nil, fmt.Errorf("float dictionary of %d entries cannot fit %d payload bytes", dn, r.remaining())
	}
	raw, err := r.take(int(dn) * 8)
	if err != nil {
		return nil, err
	}
	table := make([]float64, dn)
	for i := range table {
		table[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return table, nil
}

// dictCodes decodes one dictionary code per row and stores its table
// entry through f, rejecting a code past the table.
func dictCodes[R, V any](r *colReader, table []V, rows []R, f func(*R) *V) error {
	for i := range rows {
		code, err := r.uvarint()
		if err != nil {
			return err
		}
		if code >= uint64(len(table)) {
			return fmt.Errorf("dictionary code %d out of range (table has %d entries)", code, len(table))
		}
		*f(&rows[i]) = table[code]
	}
	return nil
}

// stripe framing ------------------------------------------------------

// appendStripe frames one encoded column: field id, encoding byte,
// payload length, payload, CRC-32C of the payload.
func appendStripe(b []byte, field uint64, enc byte, payload []byte) []byte {
	b = binary.AppendUvarint(b, field)
	b = append(b, enc)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
}

// stripeHeader is one decoded stripe's identity and payload view.
type stripeHeader struct {
	field uint64
	enc   byte
	body  []byte
}

// readStripe consumes one stripe from r, verifying its checksum.
func readStripe(r *colReader) (stripeHeader, error) {
	field, err := r.uvarint()
	if err != nil {
		return stripeHeader{}, fmt.Errorf("stripe header: %w", err)
	}
	encByte, err := r.take(1)
	if err != nil {
		return stripeHeader{}, fmt.Errorf("stripe %d: %w", field, err)
	}
	n, err := r.uvarint()
	if err != nil {
		return stripeHeader{}, fmt.Errorf("stripe %d: %w", field, err)
	}
	body, err := r.take(int(n))
	if err != nil {
		return stripeHeader{}, fmt.Errorf("stripe %d: %w", field, err)
	}
	sum, err := r.take(4)
	if err != nil {
		return stripeHeader{}, fmt.Errorf("stripe %d: checksum: %w", field, err)
	}
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(sum); got != want {
		return stripeHeader{}, fmt.Errorf("stripe %d (%s): checksum mismatch (%08x != %08x)",
			field, encName(encByte[0]), got, want)
	}
	return stripeHeader{field: field, enc: encByte[0], body: body}, nil
}
