package monitor

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"time"

	"vmwild/internal/trace"
)

// The wire codec: hand-rolled encode/decode for the exact JSON shape the
// agent and warehouse exchange, with encoding/json as the fallback for
// anything outside that shape. The fast paths are allocation-free per
// sample in steady state (server IDs are interned per connection); the
// fallback keeps behavior bit-compatible with the old json.Encoder /
// json.Unmarshal paths for every input, because the fast paths bail out on
// ANY deviation from the strict grammar rather than guessing.

// batchChunk is how many samples SendBatch and the agent pack into one
// batch frame: large enough to amortize the syscall and lock, small
// enough that a frame stays far below DefaultMaxLineBytes.
const batchChunk = 512

// batchWriteTimeout bounds one chunk flush so a stalled warehouse cannot
// hang a backfill forever.
const batchWriteTimeout = 30 * time.Second

// writeTimeout is the one rule both servers' write deadlines and the
// sender's timeout follow: d, or batchWriteTimeout when d is not positive.
func writeTimeout(d time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return batchWriteTimeout
}

var batchPool = sync.Pool{New: func() any { return make([]Sample, 0, batchChunk) }}

func takeBatch() []Sample { return batchPool.Get().([]Sample)[:0] }

//nolint:staticcheck // pooling a slice value is intentional here
func putBatch(b []Sample) { batchPool.Put(b[:0]) }

// --- encoding ---

// appendFloatJSON appends f exactly as encoding/json renders a float64
// (shortest form, 'f' inside [1e-6, 1e21), 'e' with a trimmed exponent
// outside). Reports false for NaN/Inf, which encoding/json refuses.
func appendFloatJSON(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// floatCache memoizes appendFloatJSON output keyed by bit pattern —
// telemetry values repeat heavily (quantized counters, integer gauges), so
// a memo table turns most shortest-form renderings into a copy. Entries
// store the exact bytes the formatter produced, so a hit is byte-identical
// to a miss by construction. Two-way set-associative with most-recent
// promotion, because cycling value sets alternate-thrash a direct-mapped
// table. n == 0 marks an empty slot.
const floatCacheSets = 16384 // 2 entries per set

type floatCacheEntry struct {
	bits uint64
	n    uint8
	buf  [25]byte
}

type floatCache struct {
	e [2 * floatCacheSets]floatCacheEntry
}

var floatCachePool = sync.Pool{New: func() any { return new(floatCache) }}

// appendFloatCached is appendFloatJSON through the memo table (fc may be
// nil on the uncached per-sample path).
func appendFloatCached(dst []byte, f float64, fc *floatCache) ([]byte, bool) {
	if fc == nil {
		return appendFloatJSON(dst, f)
	}
	bits := math.Float64bits(f)
	i := (bits * 0x9E3779B97F4A7C15) >> (64 - 14) * 2
	e0, e1 := &fc.e[i], &fc.e[i+1]
	if e0.n > 0 && e0.bits == bits {
		return append(dst, e0.buf[:e0.n]...), true
	}
	if e1.n > 0 && e1.bits == bits {
		*e0, *e1 = *e1, *e0 // promote the hit to the primary way
		return append(dst, e0.buf[:e0.n]...), true
	}
	start := len(dst)
	dst, ok := appendFloatJSON(dst, f)
	if ok && len(dst)-start <= len(e1.buf) {
		*e1 = *e0 // demote the previous primary, evict the secondary
		e0.bits = bits
		e0.n = uint8(copy(e0.buf[:], dst[start:]))
	}
	return dst, ok
}

// plainWireString reports whether s can be emitted between quotes with no
// escaping, matching encoding/json's default HTML-escaping encoder (which
// escapes control bytes, quotes, backslashes, <, >, & and may rewrite
// non-ASCII sequences).
func plainWireString(s trace.ServerID) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendSampleJSON appends the compact JSON object for s, byte-identical
// to json.Marshal(s). Reports false when the sample needs the fallback
// encoder (ID requiring escapes, timestamp year outside [0, 9999], or a
// non-finite float). fc may be nil to skip float memoization.
func appendSampleJSON(dst []byte, s *Sample, fc *floatCache) ([]byte, bool) {
	if !plainWireString(s.Server) {
		return dst, false
	}
	if y := s.Timestamp.Year(); y < 0 || y >= 10000 {
		return dst, false
	}
	dst = append(dst, `{"server":"`...)
	dst = append(dst, s.Server...)
	dst = append(dst, `","ts":"`...)
	dst = s.Timestamp.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, '"')
	ok := true
	emit := func(key string, f float64) {
		if !ok {
			return
		}
		dst = append(dst, ',', '"')
		dst = append(dst, key...)
		dst = append(dst, '"', ':')
		dst, ok = appendFloatCached(dst, f, fc)
	}
	emit("cpuTotalPct", s.TotalProcessorPct)
	emit("cpuPrivPct", s.PrivilegedPct)
	emit("cpuUserPct", s.UserPct)
	emit("procQueue", s.ProcQueueLength)
	emit("pagesPerSec", s.PagesPerSec)
	emit("memMB", s.MemCommittedMB)
	emit("memPct", s.MemCommittedPct)
	emit("dasdFreePct", s.DASDFreePct)
	emit("tcpConns", s.TCPConns)
	emit("tcpConnsV6", s.TCPConnsV6)
	if !ok {
		return dst, false
	}
	return append(dst, '}'), true
}

// appendSampleWire appends one sample, falling back to json.Marshal when
// the fast encoder bails. The error is the same one json.Encoder would
// have surfaced on the old per-sample path. fc may be nil.
func appendSampleWire(dst []byte, s *Sample, fc *floatCache) ([]byte, error) {
	if out, ok := appendSampleJSON(dst, s, fc); ok {
		return out, nil
	}
	enc, err := json.Marshal(s)
	if err != nil {
		return dst, err
	}
	return append(dst, enc...), nil
}

// appendBatchFrame appends one batch frame — a JSON array of sample
// objects on a single '\n'-terminated line — for up to len(samples)
// samples. fc carries the sender's float memo across frames.
func appendBatchFrame(dst []byte, samples []Sample, fc *floatCache) ([]byte, error) {
	dst = append(dst, '[')
	for i := range samples {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		dst, err = appendSampleWire(dst, &samples[i], fc)
		if err != nil {
			return dst, err
		}
	}
	return append(dst, ']', '\n'), nil
}

// --- decoding ---

// internLimit caps one connection's server-ID intern table so an
// adversarial peer cannot grow it without bound.
const internLimit = 4096

func internServer(m map[string]trace.ServerID, b []byte) trace.ServerID {
	if id, ok := m[string(b)]; ok {
		return id
	}
	s := string(b)
	id := trace.ServerID(s)
	if len(m) < internLimit {
		m[s] = id
	}
	return id
}

// wireParser scans the strict compact-JSON grammar the fast encoder
// emits. Any deviation — whitespace, escapes, unknown keys, non-Z
// timestamps, loose number grammar — makes it report failure, and the
// caller retries with encoding/json so observable behavior never
// diverges from the old path.
type wireParser struct {
	b   []byte
	pos int
}

func (p *wireParser) eat(c byte) bool {
	if p.pos < len(p.b) && p.b[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// str scans a quoted plain-ASCII string with no escapes and returns its
// contents. Non-ASCII bytes bail to the fallback, which applies
// encoding/json's invalid-UTF-8 replacement rules.
func (p *wireParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.pos
	for p.pos < len(p.b) {
		c := p.b[p.pos]
		if c == '"' {
			out := p.b[start:p.pos]
			p.pos++
			return out, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, false
		}
		p.pos++
	}
	return nil, false
}

// exactPow10 holds the powers of ten that are exactly representable as
// float64 (10^0 .. 10^22), the range where one multiply or divide of an
// exactly represented integer mantissa is correctly rounded (Clinger's
// fast path — the same shortcut strconv takes, minus its re-tokenizing).
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// num scans one JSON number token strictly per the JSON grammar and
// parses it; grammar violations and out-of-range values both fail so the
// fallback decides. The mantissa and decimal exponent are accumulated
// during the scan so that the common short-decimal case never re-reads
// the token: when the digits fit an exact float64 integer and the
// exponent an exact power of ten, one float op yields the correctly
// rounded result; everything else defers to strconv.ParseFloat.
func (p *wireParser) num() (float64, bool) {
	start := p.pos
	neg := p.eat('-')
	mant := uint64(0)
	ndigits := 0 // digits folded into mant, leading zeros included
	exp10 := 0   // decimal exponent adjustment from '.' and 'e'
	// Integer part: 0, or a nonzero digit followed by digits.
	switch {
	case p.eat('0'):
		ndigits = 1
	case p.pos < len(p.b) && p.b[p.pos] >= '1' && p.b[p.pos] <= '9':
		for p.pos < len(p.b) && p.b[p.pos] >= '0' && p.b[p.pos] <= '9' {
			if ndigits < 19 {
				mant = mant*10 + uint64(p.b[p.pos]-'0')
			}
			ndigits++
			p.pos++
		}
	default:
		return 0, false
	}
	if p.eat('.') {
		digits := 0
		for p.pos < len(p.b) && p.b[p.pos] >= '0' && p.b[p.pos] <= '9' {
			if ndigits < 19 {
				mant = mant*10 + uint64(p.b[p.pos]-'0')
				exp10--
			}
			ndigits++
			digits++
			p.pos++
		}
		if digits == 0 {
			return 0, false
		}
	}
	if p.pos < len(p.b) && (p.b[p.pos] == 'e' || p.b[p.pos] == 'E') {
		p.pos++
		expNeg := false
		if p.pos < len(p.b) && (p.b[p.pos] == '+' || p.b[p.pos] == '-') {
			expNeg = p.b[p.pos] == '-'
			p.pos++
		}
		digits, e := 0, 0
		for p.pos < len(p.b) && p.b[p.pos] >= '0' && p.b[p.pos] <= '9' {
			if e < 10000 {
				e = e*10 + int(p.b[p.pos]-'0')
			}
			digits++
			p.pos++
		}
		if digits == 0 {
			return 0, false
		}
		if expNeg {
			e = -e
		}
		exp10 += e
	}
	if ndigits <= 15 && exp10 >= -22 && exp10 <= 22 {
		f := float64(mant)
		if exp10 > 0 {
			f *= exactPow10[exp10]
		} else if exp10 < 0 {
			f /= exactPow10[-exp10]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.pos]), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

func twoDigits(b []byte) (int, bool) {
	if b[0] < '0' || b[0] > '9' || b[1] < '0' || b[1] > '9' {
		return 0, false
	}
	return int(b[0]-'0')*10 + int(b[1]-'0'), true
}

func daysInMonth(year, month int) int {
	switch month {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	default:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	}
}

// parseRFC3339UTC parses the strict "YYYY-MM-DDTHH:MM:SS[.fff...]Z" shape
// the fast encoder emits, validating every range so it never accepts a
// string time.Parse would reject (time.Date would silently normalize
// Feb 30; here it must not be reached).
func parseRFC3339UTC(b []byte) (time.Time, bool) {
	if len(b) < 20 {
		return time.Time{}, false
	}
	for _, i := range [...]int{0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18} {
		if b[i] < '0' || b[i] > '9' {
			return time.Time{}, false
		}
	}
	if b[4] != '-' || b[7] != '-' || b[10] != 'T' || b[13] != ':' || b[16] != ':' {
		return time.Time{}, false
	}
	year := int(b[0]-'0')*1000 + int(b[1]-'0')*100 + int(b[2]-'0')*10 + int(b[3]-'0')
	month, _ := twoDigits(b[5:7])
	day, _ := twoDigits(b[8:10])
	hour, _ := twoDigits(b[11:13])
	minute, _ := twoDigits(b[14:16])
	sec, _ := twoDigits(b[17:19])
	if month < 1 || month > 12 || day < 1 || day > daysInMonth(year, month) ||
		hour > 23 || minute > 59 || sec > 59 {
		return time.Time{}, false
	}
	nsec := 0
	rest := b[19:]
	if rest[0] == '.' {
		rest = rest[1:]
		digits := 0
		scale := 100_000_000
		for digits < len(rest) && rest[digits] >= '0' && rest[digits] <= '9' {
			if digits == 9 {
				// More precision than a nanosecond; let time.Parse rule.
				return time.Time{}, false
			}
			nsec += int(rest[digits]-'0') * scale
			scale /= 10
			digits++
		}
		if digits == 0 {
			return time.Time{}, false
		}
		rest = rest[digits:]
	}
	if len(rest) != 1 || rest[0] != 'Z' {
		return time.Time{}, false
	}
	return time.Date(year, time.Month(month), day, hour, minute, sec, nsec, time.UTC), true
}

// field parses one "key":value pair into s. ok=false means bail to the
// fallback decoder.
func (p *wireParser) field(s *Sample, intern map[string]trace.ServerID) bool {
	key, ok := p.str()
	if !ok || !p.eat(':') {
		return false
	}
	var dst *float64
	switch string(key) {
	case "server":
		raw, ok := p.str()
		if !ok {
			return false
		}
		s.Server = internServer(intern, raw)
		return true
	case "ts":
		raw, ok := p.str()
		if !ok {
			return false
		}
		t, ok := parseRFC3339UTC(raw)
		if !ok {
			return false
		}
		s.Timestamp = t
		return true
	case "cpuTotalPct":
		dst = &s.TotalProcessorPct
	case "cpuPrivPct":
		dst = &s.PrivilegedPct
	case "cpuUserPct":
		dst = &s.UserPct
	case "procQueue":
		dst = &s.ProcQueueLength
	case "pagesPerSec":
		dst = &s.PagesPerSec
	case "memMB":
		dst = &s.MemCommittedMB
	case "memPct":
		dst = &s.MemCommittedPct
	case "dasdFreePct":
		dst = &s.DASDFreePct
	case "tcpConns":
		dst = &s.TCPConns
	case "tcpConnsV6":
		dst = &s.TCPConnsV6
	default:
		return false
	}
	f, ok := p.num()
	if !ok {
		return false
	}
	*dst = f
	return true
}

// object parses one sample object starting at p.pos.
func (p *wireParser) object(s *Sample, intern map[string]trace.ServerID) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	for {
		if !p.field(s, intern) {
			return false
		}
		if p.eat(',') {
			continue
		}
		return p.eat('}')
	}
}

// decodeSample decodes one per-line sample object exactly as
// json.Unmarshal would, via the fast path when the line is in the strict
// grammar.
func decodeSample(line []byte, intern map[string]trace.ServerID) (Sample, error) {
	p := wireParser{b: line}
	var s Sample
	if p.object(&s, intern) && p.pos == len(line) {
		return s, nil
	}
	var slow Sample
	if err := json.Unmarshal(line, &slow); err != nil {
		return Sample{}, err
	}
	return slow, nil
}

// decodeBatch decodes a batch frame (a JSON array of sample objects) into
// dst. On any fast-path surprise the whole frame is re-decoded with
// encoding/json, so a frame is either decoded fully or rejected as a
// unit.
func decodeBatch(line []byte, dst []Sample, intern map[string]trace.ServerID) ([]Sample, error) {
	p := wireParser{b: line}
	out := dst
	ok := func() bool {
		if !p.eat('[') {
			return false
		}
		if p.eat(']') {
			return true
		}
		for {
			var s Sample
			if !p.object(&s, intern) {
				return false
			}
			out = append(out, s)
			if p.eat(',') {
				continue
			}
			return p.eat(']')
		}
	}()
	if ok && p.pos == len(line) {
		return out, nil
	}
	var slow []Sample
	if err := json.Unmarshal(line, &slow); err != nil {
		return dst[:0], err
	}
	return append(dst[:0], slow...), nil
}
