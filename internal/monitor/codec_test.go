package monitor

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"
	"unicode/utf8"

	"vmwild/internal/trace"
)

// encodeSamplesJSON is the JSON-lines snapshot encoder the binary codec
// replaced, kept as the oracle the round-trip test holds the codec to and
// as the writer of older-build checkpoints in the format-rejection tests.
func encodeSamplesJSON(out io.Writer, samples []Sample) error {
	enc := json.NewEncoder(out)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// edgeSamples are the values a sample codec is most likely to lose:
// non-finite and signed-zero floats, subnormals, timestamps outside the
// int64-nanosecond range and outside JSON's [0, 9999] years, and non-UTC
// offsets (including one with seconds, which RFC 3339 cannot carry).
func edgeSamples(id trace.ServerID) []Sample {
	at := func(t time.Time, f func(*Sample)) Sample {
		s := Sample{Server: id, Timestamp: t, TotalProcessorPct: 12.5, MemCommittedMB: 2048}
		if f != nil {
			f(&s)
		}
		return s
	}
	subnormal := math.Float64frombits(1)
	return []Sample{
		at(durableEpoch, func(s *Sample) { s.PagesPerSec = math.NaN() }),
		at(durableEpoch.Add(time.Minute), func(s *Sample) { s.TotalProcessorPct = math.NaN() }),
		at(durableEpoch.Add(2*time.Minute), func(s *Sample) { s.TCPConns, s.TCPConnsV6 = math.Inf(1), math.Inf(-1) }),
		at(durableEpoch.Add(3*time.Minute), func(s *Sample) { s.MemCommittedMB = math.Copysign(0, -1) }),
		at(durableEpoch.Add(4*time.Minute), func(s *Sample) { s.UserPct = subnormal; s.DASDFreePct = -subnormal }),
		at(durableEpoch.Add(5*time.Minute+123456789), nil),
		at(time.Date(12000, 3, 1, 4, 5, 6, 7, time.UTC), nil),
		at(time.Date(1650, 7, 8, 9, 10, 11, 999999999, time.UTC), nil),
		at(time.Date(2012, 6, 4, 9, 30, 0, 0, time.FixedZone("IST", 5*3600+30*60)), nil),
		at(time.Date(2012, 6, 4, 10, 0, 0, 0, time.FixedZone("", -8*3600)), func(s *Sample) { s.ProcQueueLength = math.NaN() }),
		at(time.Date(1900, 1, 1, 0, 0, 0, 0, time.FixedZone("LMT", 1172)), nil),
	}
}

// randomSample draws a sample JSON can carry more often than not: printable
// IDs, minute-aligned offsets, years mostly inside [0, 9999]. Random
// float bits still produce the occasional NaN, which the binary side must
// carry and the oracle comparison skips.
func randomSample(rng *rand.Rand) Sample {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_.é世"
	runes := []rune(alphabet)
	id := make([]rune, 1+rng.Intn(24))
	for i := range id {
		id[i] = runes[rng.Intn(len(runes))]
	}
	sec := rng.Int63n(1<<39) - 1<<38 // about ±8,700 years around 1970
	offsets := []int{0, 0, 3600, -5 * 3600, 5*3600 + 45*60, 14 * 3600, -12 * 3600}
	off := offsets[rng.Intn(len(offsets))]
	loc := time.UTC
	if off != 0 {
		loc = time.FixedZone("", off)
	}
	f := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return math.Float64frombits(rng.Uint64())
		case 1:
			return float64(rng.Intn(10000)) / 100
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4))
		}
	}
	return Sample{
		Server:    trace.ServerID(string(id)),
		Timestamp: time.Unix(sec, rng.Int63n(1e9)).In(loc),
		// The remaining fields in Sample order.
		TotalProcessorPct: f(), PrivilegedPct: f(), UserPct: f(), ProcQueueLength: f(),
		PagesPerSec: f(), MemCommittedMB: f(), MemCommittedPct: f(),
		DASDFreePct: f(), TCPConns: f(), TCPConnsV6: f(),
	}
}

// sampleMismatch reports how two samples differ, bit for bit: the same
// server, the same instant at the same offset (UTC when the offset is 0)
// and identical float64 bits in every metric.
func sampleMismatch(got, want Sample) string {
	if got.Server != want.Server {
		return "server " + string(got.Server) + " != " + string(want.Server)
	}
	_, gotOff := got.Timestamp.Zone()
	_, wantOff := want.Timestamp.Zone()
	if !got.Timestamp.Equal(want.Timestamp) || gotOff != wantOff {
		return "timestamp " + got.Timestamp.String() + " != " + want.Timestamp.String()
	}
	if gotOff == 0 && got.Timestamp.Location() != time.UTC {
		return "zero-offset timestamp not in UTC: " + got.Timestamp.Location().String()
	}
	g, w := sampleFloats(got), sampleFloats(want)
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return "metric " + string(rune('0'+i)) + " bits differ"
		}
	}
	return ""
}

func sampleFloats(s Sample) [10]float64 {
	return [10]float64{
		s.TotalProcessorPct, s.PrivilegedPct, s.UserPct, s.ProcQueueLength,
		s.PagesPerSec, s.MemCommittedMB, s.MemCommittedPct,
		s.DASDFreePct, s.TCPConns, s.TCPConnsV6,
	}
}

func TestSampleRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20141208))
	samples := edgeSamples("edge")
	samples = append(samples, edgeSamples("\xff\x00 not utf-8")...)
	for i := 0; i < 3000; i++ {
		samples = append(samples, randomSample(rng))
	}
	intern := make(map[string]trace.ServerID)
	viaJSON := 0
	for i, s := range samples {
		rec := appendRecord(nil, &s)
		got, rest, err := decodeRecord(rec, intern)
		if err != nil || len(rest) != 0 {
			t.Fatalf("sample %d: decode = %v with %d bytes left", i, err, len(rest))
		}
		if msg := sampleMismatch(got, s); msg != "" {
			t.Fatalf("sample %d (%+v): binary round trip: %s", i, s, msg)
		}
		for n := 0; n < len(rec); n++ {
			if _, _, err := decodeRecord(rec[:n], intern); err == nil {
				t.Fatalf("sample %d: %d-byte prefix of a %d-byte record decoded", i, n, len(rec))
			}
		}

		// Wherever the JSON oracle carries the sample losslessly, the
		// binary codec must agree with its round trip.
		_, off := s.Timestamp.Zone()
		var line bytes.Buffer
		if !utf8.ValidString(string(s.Server)) || off%60 != 0 || encodeSamplesJSON(&line, []Sample{s}) != nil {
			continue
		}
		var back Sample
		if err := json.Unmarshal(line.Bytes(), &back); err != nil {
			t.Fatalf("sample %d: oracle round trip: %v", i, err)
		}
		if msg := sampleMismatch(got, back); msg != "" {
			t.Fatalf("sample %d (%+v): binary and JSON round trips differ: %s", i, s, msg)
		}
		viaJSON++
	}
	if viaJSON < len(samples)/4 {
		t.Errorf("only %d of %d samples were checked against the JSON oracle", viaJSON, len(samples))
	}
}

func TestSampleRecordRejects(t *testing.T) {
	s := edgeSamples("edge")[0]
	rec := appendRecord(nil, &s)
	intern := make(map[string]trace.ServerID)
	for _, tc := range []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, errRecordTruncated},
		{"id past buffer", []byte{200, 'a', 'b'}, errRecordIDLength},
		{"huge id length", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, errRecordIDLength},
		{"nanoseconds >= 1e9", append(binary.AppendUvarint([]byte{1, 'a', 2}, 1e9), make([]byte, 81)...), errRecordNanos},
		{"missing metric bytes", rec[:len(rec)-1], errRecordTruncated},
	} {
		if _, _, err := decodeRecord(tc.b, intern); err != tc.want {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// A payload cut inside a record restores the complete records before
	// the cut and reports the rest.
	w := NewWarehouse(0)
	payload := append([]byte(snapshotMagic), rec...)
	payload = append(payload, rec[:7]...)
	if n, err := w.restore(payload); err == nil || n != 1 {
		t.Errorf("cut payload: restored %d, err %v; want 1 and an error", n, err)
	}
	if n, err := NewWarehouse(0).restore([]byte(snapshotMagic)); err != nil || n != 0 {
		t.Errorf("magic alone: restored %d, err %v; want an empty snapshot", n, err)
	}
}
