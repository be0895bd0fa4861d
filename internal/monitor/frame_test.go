package monitor

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
	"time"

	"vmwild/internal/trace"
)

// The frame codec's contract: a frame decodes to exactly the samples it
// was built from, each with its own record bytes, and anything else — a
// flipped bit, a wrong count, trailing bytes, a cut — is refused whole.
// These tests, FuzzDecodeFrame and FuzzDecodeSample enforce it.

func wireSample(i int) Sample {
	r := rand.New(rand.NewSource(int64(i)))
	return Sample{
		Server:            trace.ServerID(fmt.Sprintf("srv-%03d", i)),
		Timestamp:         time.Date(2012, 6, 4, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * 37 * time.Second),
		TotalProcessorPct: r.Float64() * 100,
		PrivilegedPct:     r.Float64() * 50,
		UserPct:           r.Float64() * 50,
		ProcQueueLength:   float64(r.Intn(20)),
		PagesPerSec:       r.Float64() * 1e4,
		MemCommittedMB:    r.Float64() * 32768,
		MemCommittedPct:   r.Float64() * 100,
		DASDFreePct:       r.Float64() * 100,
		TCPConns:          float64(r.Intn(65536)),
		TCPConnsV6:        float64(r.Intn(65536)),
	}
}

// frameOf wraps payload in a frame with a correct magic, length and CRC,
// so a test can reach the decoder's checks behind the CRC.
func frameOf(payload []byte) []byte {
	b := append([]byte{frameMagic, 0, 0, 0, 0}, payload...)
	binary.LittleEndian.PutUint32(b[1:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// framePayload is a payload header: agent, seq and count.
func framePayload(agent string, seq, count uint64) []byte {
	p := binary.AppendUvarint(nil, uint64(len(agent)))
	p = append(p, agent...)
	p = binary.AppendUvarint(p, seq)
	return binary.AppendUvarint(p, count)
}

func TestBatchFrameRoundTrip(t *testing.T) {
	var samples []Sample
	for i := 0; i < 300; i++ {
		samples = append(samples, wireSample(i))
	}
	samples = append(samples, edgeSamples("needs<escape>\n")...)
	frame := appendFrame([]byte("prefix"), "agent-1", 42, samples)[len("prefix"):]

	var f frameBatch
	intern := make(map[string]trace.ServerID)
	if err := f.decode(frame, intern); err != nil {
		t.Fatal(err)
	}
	if f.agent != "agent-1" || f.seq != 42 || len(f.samples) != len(samples) || len(f.recs) != len(samples) {
		t.Fatalf("decoded agent %q seq %d with %d samples, %d records; want agent-1, 42, %d",
			f.agent, f.seq, len(f.samples), len(f.recs), len(samples))
	}
	for i := range samples {
		if msg := sampleMismatch(f.samples[i], samples[i]); msg != "" {
			t.Fatalf("sample %d: %s", i, msg)
		}
		if want := appendRecord(nil, &samples[i]); !bytes.Equal(f.recs[i], want) {
			t.Fatalf("sample %d: record span %x, want %x", i, f.recs[i], want)
		}
	}
	if err := f.decode(appendFrame(nil, "a", 0, nil), intern); err != nil || len(f.samples) != 0 {
		t.Fatalf("empty frame: %d samples, %v", len(f.samples), err)
	}

	rec := appendRecord(nil, &samples[0])
	for _, tc := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"json envelope", []byte(`{"batch":1,"agent":"a","crc":0,"samples":[]}`), errFrameMagic},
		{"length past the bytes", frame[:len(frame)-1], errFrameTruncated},
		{"crc mismatch", append(bytes.Clone(frame[:len(frame)-1]), frame[len(frame)-1]^1), errFrameCRC},
		{"empty agent", frameOf(framePayload("", 1, 0)), errFrameAgent},
		{"agent past the payload", frameOf([]byte{9, 'a'}), errFrameAgent},
		{"no seq", frameOf([]byte{1, 'a'}), errFrameTruncated},
		{"count above the records", frameOf(append(framePayload("a", 1, 2), rec...)), errFrameCount},
		{"count below the records", frameOf(append(framePayload("a", 1, 0), rec...)), errFrameCount},
		{"trailing bytes", frameOf(append(append(framePayload("a", 1, 1), rec...), 0)), errFrameCount},
		{"cut record", frameOf(append(framePayload("a", 1, 1), rec[:len(rec)-1]...)), errRecordTruncated},
		{"non-minimal seq", frameOf(append([]byte{1, 'a', 0x81, 0x00}, 0)), errFrameTruncated},
	} {
		if err := f.decode(tc.frame, intern); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestSplitFrameTokens: the connection's split function hands out whole
// frames, waits for the rest of a partial one, and refuses a wrong magic,
// a frame over the bound and a frame cut by EOF.
func TestSplitFrameTokens(t *testing.T) {
	frame := appendFrame(nil, "agent-1", 1, []Sample{wireSample(0), wireSample(1)})
	split := splitFrame(len(frame))
	two := append(bytes.Clone(frame), frame...)
	if adv, tok, err := split(two, false); err != nil || adv != len(frame) || !bytes.Equal(tok, frame) {
		t.Fatalf("split = %d, %d bytes, %v; want one %d-byte frame", adv, len(tok), err, len(frame))
	}
	for cut := 0; cut < len(frame); cut++ {
		if adv, tok, err := split(frame[:cut], false); adv != 0 || tok != nil || err != nil {
			t.Fatalf("a %d-byte prefix: split = %d, %v, %v; want a request for more", cut, adv, tok, err)
		}
		want := errFrameTruncated
		if cut == 0 {
			want = nil // a clean end between frames
		}
		if _, _, err := split(frame[:cut], true); err != want {
			t.Fatalf("a %d-byte prefix at EOF: err = %v, want %v", cut, err, want)
		}
	}
	if _, _, err := splitFrame(len(frame)-1)(frame[:frameHeader], false); err != bufio.ErrTooLong {
		t.Fatalf("oversized frame: err = %v, want bufio.ErrTooLong", err)
	}
	if _, _, err := split([]byte("{}\n"), false); err != errFrameMagic {
		t.Fatalf("JSON line: err = %v, want errFrameMagic", err)
	}
}

// FuzzDecodeFrame holds the frame decoder to the FuzzSetBody rule: any
// input either errors or re-encodes to exactly its own bytes, and no strict
// prefix of an accepted frame decodes. wrap puts the fuzzed bytes behind a
// correct header and CRC so the fuzzer reaches the payload checks.
func FuzzDecodeFrame(f *testing.F) {
	edge := edgeSamples("edge")
	full := appendFrame(nil, "agent-1", 7, append([]Sample{wireSample(1), wireSample(2)}, edge...))
	f.Add(full, false)
	f.Add(full[frameHeader:len(full)-frameTrailer], true)
	for _, cut := range []int{1, frameHeader, len(full) / 2, len(full) - 1} {
		f.Add(full[:cut], false)
	}
	f.Add(appendFrame(nil, "a", 0, nil), false)
	f.Add([]byte{1, 'a', 0x80, 0x00, 0}, true) // non-minimal seq
	f.Add([]byte{0, 1, 0}, true)               // empty agent
	f.Add(append(framePayload("a", 1, 2), appendRecord(nil, &edge[0])...), true)
	f.Add([]byte(`{"batch":1,"agent":"a","crc":0,"samples":[]}`), false)
	f.Fuzz(func(t *testing.T, in []byte, wrap bool) {
		if wrap {
			in = frameOf(in)
		}
		var fb frameBatch
		intern := make(map[string]trace.ServerID)
		if err := fb.decode(in, intern); err != nil {
			return
		}
		if again := appendFrame(nil, fb.agent, fb.seq, fb.samples); !bytes.Equal(again, in) {
			t.Fatalf("decoded %x re-encodes as %x", in, again)
		}
		for i := range fb.samples {
			if want := appendRecord(nil, &fb.samples[i]); !bytes.Equal(fb.recs[i], want) {
				t.Fatalf("record %d spans %x, re-encodes as %x", i, fb.recs[i], want)
			}
		}
		split := splitFrame(len(in))
		for cut := range in {
			if err := fb.decode(in[:cut], intern); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte frame decoded", cut, len(in))
			}
			if adv, _, err := split(in[:cut], true); adv != 0 || (cut > 0 && err == nil) {
				t.Fatalf("a %d-byte prefix of a %d-byte frame split as a token", cut, len(in))
			}
		}
	})
}

// FuzzDecodeSample holds the one sample decoder left, decodeRecord, to the
// same rule one layer down: whatever it accepts re-encodes to exactly the
// bytes it consumed, and no strict prefix of an accepted record decodes.
func FuzzDecodeSample(f *testing.F) {
	for _, s := range edgeSamples("edge")[:5] {
		f.Add(appendRecord(nil, &s))
	}
	s := wireSample(3)
	rec := appendRecord(nil, &s)
	f.Add(rec[:len(rec)-1])                                        // cut in the metrics
	f.Add(append([]byte{1, 'a', 0x80, 0x00}, make([]byte, 82)...)) // non-minimal seconds
	f.Fuzz(func(t *testing.T, in []byte) {
		intern := make(map[string]trace.ServerID)
		s, rest, err := decodeRecord(in, intern)
		if err != nil {
			return
		}
		used := in[:len(in)-len(rest)]
		if again := appendRecord(nil, &s); !bytes.Equal(again, used) {
			t.Fatalf("decoded %x re-encodes as %x", used, again)
		}
		for cut := range used {
			if _, _, err := decodeRecord(used[:cut], intern); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte record decoded", cut, len(used))
			}
		}
	})
}
