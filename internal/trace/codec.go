package trace

// Gorilla-style lossless compression for the warehouse's hot columns
// (timestamp, cpu, mem), after Facebook's in-memory TSDB: timestamps are
// delta-of-delta coded (a regular collection cadence costs one bit per
// sample) and float values are XOR coded against their predecessor (a
// repeated or slowly moving value costs one bit, a changed value only its
// meaningful mantissa bits). The codec is exact — decode reproduces the
// input bit for bit, NaN payloads and negative zeros included — which is
// what lets compressed read replicas answer queries bitwise-identically to
// the raw columns.
//
// Data is framed in immutable chunks of bounded sample count. Each chunk
// is independently decodable and carries its covering time range in the
// header, so readers can skip chunks that cannot intersect a query window
// without touching the bitstreams.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// chunkVersion tags the serialized chunk layout.
const chunkVersion = 0x01

// MaxChunkSamples bounds one chunk's sample count; CompressChunk refuses
// more and UnmarshalChunk rejects headers claiming more (a fuzz guard: a
// corrupt count must not buy unbounded allocation or decode work).
const MaxChunkSamples = 1 << 16

var (
	errChunkEmpty    = errors.New("trace: compress: no samples")
	errChunkLens     = errors.New("trace: compress: column lengths differ")
	errChunkOrder    = errors.New("trace: compress: timestamps decrease")
	errChunkTooBig   = fmt.Errorf("trace: compress: more than %d samples", MaxChunkSamples)
	errChunkCorrupt  = errors.New("trace: chunk corrupt")
	errChunkTrunc    = errors.New("trace: chunk truncated")
	errChunkVersion  = errors.New("trace: chunk version unsupported")
	errChunkDecodeTS = errors.New("trace: chunk timestamp stream corrupt")
)

// CompressedChunk is one immutable compressed run of the three hot columns.
// The zero value is not usable; build chunks with CompressChunk or
// UnmarshalChunk.
type CompressedChunk struct {
	count      int
	firstNanos int64
	lastNanos  int64
	ts         []byte // delta-of-delta bitstream (first timestamp in header)
	cpu        []byte // XOR bitstream
	mem        []byte // XOR bitstream
}

// Count reports how many samples the chunk holds.
func (c *CompressedChunk) Count() int { return c.count }

// FirstNanos is the first (earliest) timestamp in the chunk, unix nanos.
func (c *CompressedChunk) FirstNanos() int64 { return c.firstNanos }

// LastNanos is the last (latest) timestamp in the chunk, unix nanos.
func (c *CompressedChunk) LastNanos() int64 { return c.lastNanos }

// CompressedBytes is the chunk's bitstream footprint (excluding the small
// fixed header) — the numerator of the compression-ratio metric.
func (c *CompressedChunk) CompressedBytes() int {
	return len(c.ts) + len(c.cpu) + len(c.mem)
}

// Overlaps reports whether the chunk can contain samples in [fromNanos,
// toNanos). Readers use it to skip chunks without decoding them.
func (c *CompressedChunk) Overlaps(fromNanos, toNanos int64) bool {
	return c.lastNanos >= fromNanos && c.firstNanos < toNanos
}

// CompressChunk compresses parallel columns into one chunk. Timestamps
// must be non-decreasing (the warehouse keeps its columns timestamp-
// sorted); values may be anything representable in a float64.
func CompressChunk(nanos []int64, cpu, mem []float64) (*CompressedChunk, error) {
	n := len(nanos)
	if n == 0 {
		return nil, errChunkEmpty
	}
	if len(cpu) != n || len(mem) != n {
		return nil, errChunkLens
	}
	if n > MaxChunkSamples {
		return nil, errChunkTooBig
	}

	tw := newBitWriter()
	prevTS := nanos[0]
	prevDelta := int64(0)
	for i := 1; i < n; i++ {
		if nanos[i] < prevTS {
			return nil, errChunkOrder
		}
		delta := nanos[i] - prevTS
		tw.writeDoD(delta - prevDelta)
		prevTS, prevDelta = nanos[i], delta
	}

	return &CompressedChunk{
		count:      n,
		firstNanos: nanos[0],
		lastNanos:  nanos[n-1],
		ts:         tw.finish(),
		cpu:        compressFloats(cpu),
		mem:        compressFloats(mem),
	}, nil
}

// AppendTo decodes the chunk, appending its samples to the given column
// buffers (any of which may be nil). It returns the grown slices. A chunk
// built by CompressChunk always decodes; a chunk deserialized from bytes
// may fail with a typed error if the streams are truncated or inconsistent
// with the header — never with a panic.
func (c *CompressedChunk) AppendTo(nanos []int64, cpu, mem []float64) ([]int64, []float64, []float64, error) {
	if c.count <= 0 || c.count > MaxChunkSamples {
		return nanos, cpu, mem, errChunkCorrupt
	}
	baseN, baseC, baseM := len(nanos), len(cpu), len(mem)
	nanos = slicesGrow(nanos, c.count)
	tr := bitReader{b: c.ts}
	prevTS, prevDelta := c.firstNanos, int64(0)
	nanos = append(nanos, prevTS)
	for i := 1; i < c.count; i++ {
		dod, ok := tr.readDoD()
		if !ok {
			return nanos[:baseN], cpu, mem, errChunkTrunc
		}
		prevDelta += dod
		if prevDelta < 0 {
			return nanos[:baseN], cpu, mem, errChunkDecodeTS
		}
		next := prevTS + prevDelta
		if next < prevTS { // int64 overflow
			return nanos[:baseN], cpu, mem, errChunkDecodeTS
		}
		prevTS = next
		nanos = append(nanos, prevTS)
	}
	if prevTS != c.lastNanos {
		return nanos[:baseN], cpu, mem, errChunkDecodeTS
	}
	var err error
	if cpu, err = appendFloats(cpu, c.cpu, c.count); err != nil {
		return nanos[:baseN], cpu[:baseC], mem, err
	}
	if mem, err = appendFloats(mem, c.mem, c.count); err != nil {
		return nanos[:baseN], cpu[:baseC], mem[:baseM], err
	}
	return nanos, cpu, mem, nil
}

// MarshalBinary serializes the chunk (version, count, time range, stream
// lengths, streams) — the at-rest form future storage tiers and the fuzz
// harness consume.
func (c *CompressedChunk) MarshalBinary() []byte {
	out := make([]byte, 0, 32+c.CompressedBytes())
	out = append(out, chunkVersion)
	out = binary.AppendUvarint(out, uint64(c.count))
	out = binary.AppendVarint(out, c.firstNanos)
	out = binary.AppendVarint(out, c.lastNanos-c.firstNanos)
	out = binary.AppendUvarint(out, uint64(len(c.ts)))
	out = binary.AppendUvarint(out, uint64(len(c.cpu)))
	out = binary.AppendUvarint(out, uint64(len(c.mem)))
	out = append(out, c.ts...)
	out = append(out, c.cpu...)
	out = append(out, c.mem...)
	return out
}

// UnmarshalChunk deserializes a chunk written by MarshalBinary. Structural
// damage (bad version, impossible count, short streams) is reported as a
// typed error; bitstream damage inside plausible bounds surfaces later,
// from AppendTo.
func UnmarshalChunk(data []byte) (*CompressedChunk, error) {
	if len(data) < 1 || data[0] != chunkVersion {
		return nil, errChunkVersion
	}
	rest := data[1:]
	readUvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	readVarint := func() (int64, bool) {
		v, n := binary.Varint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	count, ok := readUvarint()
	if !ok || count == 0 || count > MaxChunkSamples {
		return nil, errChunkCorrupt
	}
	first, ok := readVarint()
	if !ok {
		return nil, errChunkTrunc
	}
	span, ok := readVarint()
	if !ok || span < 0 {
		return nil, errChunkCorrupt
	}
	last := first + span
	var lens [3]uint64
	for i := range lens {
		if lens[i], ok = readUvarint(); !ok {
			return nil, errChunkTrunc
		}
	}
	total := lens[0] + lens[1] + lens[2]
	if total != uint64(len(rest)) {
		return nil, errChunkTrunc
	}
	c := &CompressedChunk{
		count:      int(count),
		firstNanos: first,
		lastNanos:  last,
		ts:         rest[:lens[0]],
		cpu:        rest[lens[0] : lens[0]+lens[1]],
		mem:        rest[lens[0]+lens[1]:],
	}
	return c, nil
}

// slicesGrow ensures room for n more elements without changing length.
func slicesGrow(s []int64, n int) []int64 {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]int64, len(s), len(s)+n)
	copy(out, s)
	return out
}

// compressFloats XOR-codes one float column.
func compressFloats(vals []float64) []byte {
	w := newBitWriter()
	prev := math.Float64bits(vals[0])
	w.writeBits(prev, 64)
	// The "window" is the (leading, trailing) zero-bit frame of the last
	// explicitly coded XOR; while successive XORs fit it, each costs only
	// its meaningful bits plus a two-bit control code.
	winLZ, winSig := -1, 0
	for _, v := range vals[1:] {
		b := math.Float64bits(v)
		xor := b ^ prev
		prev = b
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		lz := bits.LeadingZeros64(xor)
		tz := bits.TrailingZeros64(xor)
		sig := 64 - lz - tz
		if winLZ >= 0 {
			winTZ := 64 - winLZ - winSig
			if lz >= winLZ && tz >= winTZ {
				// Fits the open window: '10' + the window's bits.
				w.writeBits(0b10, 2)
				w.writeBits(xor>>uint(winTZ), uint(winSig))
				continue
			}
		}
		// New window: '11' + 6 bits leading + 6 bits (sig-1) + sig bits.
		w.writeBits(0b11, 2)
		w.writeBits(uint64(lz), 6)
		w.writeBits(uint64(sig-1), 6)
		w.writeBits(xor>>uint(tz), uint(sig))
		winLZ, winSig = lz, sig
	}
	return w.finish()
}

// appendFloats decodes one XOR stream of count values into out.
func appendFloats(out []float64, stream []byte, count int) ([]float64, error) {
	base := len(out)
	if cap(out)-base < count {
		grown := make([]float64, base, base+count)
		copy(grown, out)
		out = grown
	}
	r := bitReader{b: stream}
	prev, ok := r.readBits(64)
	if !ok {
		return out, errChunkTrunc
	}
	out = append(out, math.Float64frombits(prev))
	winLZ, winSig := -1, 0
	for i := 1; i < count; i++ {
		ctrl, ok := r.readBit()
		if !ok {
			return out[:base], errChunkTrunc
		}
		if ctrl == 0 {
			out = append(out, math.Float64frombits(prev))
			continue
		}
		newWin, ok := r.readBit()
		if !ok {
			return out[:base], errChunkTrunc
		}
		if newWin == 1 {
			hdr, ok := r.readBits(12)
			if !ok {
				return out[:base], errChunkTrunc
			}
			winLZ = int(hdr >> 6)
			winSig = int(hdr&0x3f) + 1
		} else if winLZ < 0 {
			// '10' before any window was opened: corrupt stream.
			return out[:base], errChunkCorrupt
		}
		winTZ := 64 - winLZ - winSig
		if winTZ < 0 {
			return out[:base], errChunkCorrupt
		}
		mant, ok := r.readBits(uint(winSig))
		if !ok {
			return out[:base], errChunkTrunc
		}
		prev ^= mant << uint(winTZ)
		out = append(out, math.Float64frombits(prev))
	}
	return out, nil
}

// writeDoD encodes one delta-of-delta with nanosecond-scale buckets:
// 0 costs one bit (a steady cadence), jitter up to ±8 µs costs 16, up to
// ±2 min costs 31, up to ±100 days costs 48, and anything else 68.
func (w *bitWriter) writeDoD(dod int64) {
	z := uint64(dod<<1) ^ uint64(dod>>63) // zigzag
	switch {
	case z == 0:
		w.writeBit(0)
	case z < 1<<14:
		w.writeBits(0b10, 2)
		w.writeBits(z, 14)
	case z < 1<<28:
		w.writeBits(0b110, 3)
		w.writeBits(z, 28)
	case z < 1<<44:
		w.writeBits(0b1110, 4)
		w.writeBits(z, 44)
	default:
		w.writeBits(0b1111, 4)
		w.writeBits(z, 64)
	}
}

// readDoD decodes one delta-of-delta.
func (r *bitReader) readDoD() (int64, bool) {
	b, ok := r.readBit()
	if !ok {
		return 0, false
	}
	if b == 0 {
		return 0, true
	}
	width := uint(0)
	for _, n := range [3]uint{14, 28, 44} {
		b, ok = r.readBit()
		if !ok {
			return 0, false
		}
		if b == 0 {
			width = n
			break
		}
	}
	if width == 0 {
		width = 64
	}
	z, ok := r.readBits(width)
	if !ok {
		return 0, false
	}
	return int64(z>>1) ^ -int64(z&1), true // un-zigzag
}

// bitWriter packs MSB-first bits into a byte slice through a 64-bit
// accumulator (word-at-a-time, not bit-at-a-time — the codec sits on the
// replica publish path).
type bitWriter struct {
	b      []byte
	acc    uint64  // pending bits, MSB-aligned
	n      uint    // valid bits in acc
	pooled *[]byte // where b came from
}

// streamBufs recycles the buffers bitstreams grow in. finish copies a
// stream out at its exact size, so a chunk pays for neither the growth of
// its buffer nor its slack. A replica republish re-encodes every chunk of
// a store after an eviction, and without the pool that growth is most of
// what a republish allocates.
var streamBufs = sync.Pool{New: func() any { return new([]byte) }}

func newBitWriter() bitWriter {
	p := streamBufs.Get().(*[]byte)
	return bitWriter{b: (*p)[:0], pooled: p}
}

func (w *bitWriter) writeBit(bit uint64) { w.writeBits(bit, 1) }

// writeBits appends the low n bits of v, MSB first. n must be in [1, 64].
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n < 64 {
		v &= 1<<n - 1
	}
	v <<= 64 - n // left-align
	if w.n+n < 64 {
		w.acc |= v >> w.n
		w.n += n
		return
	}
	take := 64 - w.n
	w.acc |= v >> w.n
	w.b = binary.BigEndian.AppendUint64(w.b, w.acc)
	w.acc = v << take // take == 64 shifts to zero, per Go shift semantics
	w.n = n - take
}

// finish flushes the partial tail and returns a copy of the stream,
// recycling the buffer. The writer must not be reused afterwards.
func (w *bitWriter) finish() []byte {
	for i := uint(0); i < w.n; i += 8 {
		w.b = append(w.b, byte(w.acc>>(56-i)))
	}
	out := append([]byte(nil), w.b...)
	*w.pooled = w.b
	streamBufs.Put(w.pooled)
	*w = bitWriter{}
	return out
}

// bitReader consumes MSB-first bits from a byte slice.
type bitReader struct {
	b   []byte
	pos int
	acc uint64 // upcoming bits, MSB-aligned
	n   uint   // valid bits in acc
}

func (r *bitReader) fill() {
	for r.n <= 56 && r.pos < len(r.b) {
		r.acc |= uint64(r.b[r.pos]) << (56 - r.n)
		r.pos++
		r.n += 8
	}
}

func (r *bitReader) readBit() (uint64, bool) {
	if r.n == 0 {
		r.fill()
		if r.n == 0 {
			return 0, false
		}
	}
	v := r.acc >> 63
	r.acc <<= 1
	r.n--
	return v, true
}

// readBits reads n bits MSB-first. n must be in [1, 64].
func (r *bitReader) readBits(n uint) (uint64, bool) {
	if r.n < n {
		r.fill()
	}
	if n <= r.n {
		v := r.acc >> (64 - n)
		r.acc <<= n // n == 64 shifts to zero, per Go shift semantics
		r.n -= n
		return v, true
	}
	// fill tops the accumulator up only to 63 bits, so an unaligned read
	// of more than 56 bits can land here with bytes still unread: take
	// what is buffered, refill, take the rest.
	if r.pos >= len(r.b) {
		return 0, false
	}
	have := r.n
	hi := r.acc >> (64 - have)
	r.acc, r.n = 0, 0
	r.fill()
	rem := n - have // <= 7: have is at least 57 when bytes remained
	if r.n < rem {
		return 0, false
	}
	lo := r.acc >> (64 - rem)
	r.acc <<= rem
	r.n -= rem
	return hi<<rem | lo, true
}
