package monitor

import (
	"sync"
	"time"

	"vmwild/internal/trace"
)

// batchChunk is how many samples a sender packs into one frame: large
// enough to amortize the syscall, the locks and the WAL append, small
// enough that a frame stays far below DefaultMaxLineBytes.
const batchChunk = 512

// batchWriteTimeout is the default bound on one frame's write and ack
// read, so a stalled warehouse cannot hang a sender forever.
const batchWriteTimeout = 30 * time.Second

// writeTimeout is the one rule both servers' write deadlines and the
// sender's timeout follow: d, or batchWriteTimeout when d is not positive.
func writeTimeout(d time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return batchWriteTimeout
}

// batchPool recycles the per-connection decoded frame.
var batchPool = sync.Pool{New: func() any {
	return &frameBatch{samples: make([]Sample, 0, batchChunk), recs: make([][]byte, 0, batchChunk)}
}}

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
