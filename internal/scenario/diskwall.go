package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vmwild/internal/fsx"
	"vmwild/internal/monitor"
	"vmwild/internal/stats"
	"vmwild/internal/trace"
	"vmwild/internal/wal"
)

// The disk-chaos wall: storage-fault drills against the durable plane —
// the warehouse journal lanes, the segmented WAL, its checkpoints and
// snapshots — running over a seeded fsx.FaultFS instead of a real failing
// disk. Where the network chaos wall (resilience.go) attacks the bytes in
// flight, this wall attacks the bytes at rest: torn writes, failed fsyncs,
// exhausted disks, failed checkpoint renames, bit rot on the read path,
// and a crash that tears every unsynced tail.
//
// Every fault decision is an identity-addressed draw from the run seed, so
// a drill is bit-reproducible: same seed, same fault schedule, same
// recovery. The checkpoints assert only storage-fault-free invariants:
//
//   - acknowledgment honesty: a nil ingest error means the sample is
//     durable; a failing disk surfaces typed, retryable errors (shed, not
//     silently dropped), and the two-sided sender/warehouse ledger
//     reconciles exactly through a full ENOSPC brownout;
//   - replay == acked: recovery through a clean filesystem yields exactly
//     the acknowledged records — a poisoned segment's doubtful tail is
//     never re-acked, and nothing acknowledged is lost;
//   - byte identity at commit boundaries: the recovered warehouse
//     serializes bit-identically to the pre-crash one (or to a clean
//     rebuild from the acked set), or recovery truncated at the documented
//     record boundary and says so;
//   - determinism: two independent recoveries of the same wreckage agree
//     byte for byte.

// DiskScenario is one storage-chaos drill. Unlike resilience scenarios it
// needs no sockets for its storage invariants (the ENOSPC drill runs the
// real sender/warehouse protocol over loopback purely to prove the ack
// ledger stays honest); the fault schedule is a pure function of the seed.
type DiskScenario struct {
	ID          string
	Name        string
	Description string

	run func(r *diskRig) error
}

// DiskChaos returns the disk-chaos drills in wall order.
func DiskChaos() []*DiskScenario {
	return []*DiskScenario{
		ENOSPCBrownout(),
		FsyncPoison(),
		TornRename(),
		CorruptReadRecovery(),
	}
}

// GetDiskChaos finds a disk-chaos drill by ID.
func GetDiskChaos(id string) (*DiskScenario, error) {
	for _, ds := range DiskChaos() {
		if ds.ID == id {
			return ds, nil
		}
	}
	return nil, fmt.Errorf("scenario: unknown disk-chaos scenario %q", id)
}

// Run executes the drill at the given seed. Run errors only on harness
// failures (temp dir, listen); invariant outcomes land in the Result's
// checkpoints.
func (ds *DiskScenario) Run(seed int64) (*Result, error) {
	r, err := newDiskRig(ds.ID, seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := ds.run(r); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", ds.ID, err)
	}
	res := &Result{
		ID:          ds.ID,
		Seed:        seed,
		Servers:     r.servers,
		Checkpoints: r.checkpoints,
		Passed:      true,
	}
	for _, cp := range res.Checkpoints {
		if !cp.Passed {
			res.Passed = false
		}
	}
	return res, nil
}

// diskRig is the scratch state one disk drill runs in: a temp root the
// FaultFS draws are keyed relative to, and the checkpoint ledger.
type diskRig struct {
	id      string
	seed    int64
	root    string
	servers int

	turn        string
	checkpoints []CheckpointResult
}

func newDiskRig(id string, seed int64) (*diskRig, error) {
	root, err := os.MkdirTemp("", "vmwild-diskwall-")
	if err != nil {
		return nil, fmt.Errorf("scenario %s: temp root: %w", id, err)
	}
	return &diskRig{id: id, seed: seed, root: root, turn: "setup"}, nil
}

func (r *diskRig) close() { os.RemoveAll(r.root) }

// faultFS builds the drill's seeded fault injector rooted at the rig's
// temp dir, so the schedule is independent of where the temp dir landed.
func (r *diskRig) faultFS(p fsx.Profile) (*fsx.FaultFS, error) {
	return fsx.NewFaultFS(fsx.OS, r.root, r.seed, p)
}

// phase labels subsequent checkpoints.
func (r *diskRig) phase(name string) { r.turn = name }

// check records one invariant's outcome.
func (r *diskRig) check(name string, err error) {
	cp := CheckpointResult{Name: name, Turn: r.turn, Passed: err == nil}
	if err != nil {
		cp.Detail = err.Error()
	}
	r.checkpoints = append(r.checkpoints, cp)
}

// diskSample is the drills' deterministic ground truth: values are a pure
// function of (agent, index), so any retained or recovered sample can be
// checked bit for bit without a side table.
func diskSample(agent, i int) monitor.Sample {
	return monitor.Sample{
		Server:            trace.ServerID(fmt.Sprintf("disk-%02d", agent)),
		Timestamp:         soakEpoch.Add(time.Duration(i) * time.Minute),
		TotalProcessorPct: float64((i*37 + agent*11) % 101),
		MemCommittedMB:    float64(512 + (i*13+agent*7)%2048),
	}
}

// snapshotOf serializes a warehouse's full retained state (sorted by
// server then timestamp — the byte-identity surface of the wall).
func snapshotOf(w *monitor.Warehouse) ([]byte, error) {
	var buf bytes.Buffer
	if err := w.Snapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// storageErrTyped reports whether a write-path failure is one of the typed
// storage conditions the stack promises to surface — retryable disk-full,
// poisoned-by-failed-fsync, or an injected I/O fault — rather than an
// untyped mystery.
func storageErrTyped(err error) bool {
	return errors.Is(err, wal.ErrDiskFull) ||
		errors.Is(err, wal.ErrPoisoned) ||
		errors.Is(err, fsx.ErrInjected)
}

// ENOSPCBrownout fills the journal's disk mid-ingest and requires graceful
// degradation end to end: typed ErrDiskFull on the durable path, the
// warehouse latched into shed-ingest read-only mode, every network sample
// refused-and-counted (the ack never claims durability the journal
// refused — even when the disk fills mid-envelope), reads still served,
// and after the operator frees space an explicit resume plus a recovery
// that replays exactly the acked set, byte-identical.
func ENOSPCBrownout() *DiskScenario {
	const (
		agents         = 6
		shards         = 2
		steady         = 48   // samples per agent before the disk fills
		burst          = 32   // samples per agent queued against the full disk
		after          = 32   // samples per agent after the heal
		brownoutBudget = 1536 // bytes left when the brownout starts: a few samples, then ENOSPC
	)
	return &DiskScenario{
		ID:   "enospc-brownout",
		Name: "ENOSPC brownout",
		Description: "The journal disk fills mid-ingest: durable ingest fails with typed " +
			"ErrDiskFull, the warehouse sheds network ingest read-only with an exact " +
			"two-sided ledger, and after space frees recovery replays exactly the acked set.",
		run: func(r *diskRig) error {
			r.servers = agents
			ffs, err := r.faultFS(fsx.Profile{})
			if err != nil {
				return err
			}
			w := monitor.NewWarehouseShards(0, shards)
			walDir := filepath.Join(r.root, "wal")
			wl, err := monitor.OpenWarehouseLog(w, walDir, 1<<20,
				wal.Options{FS: ffs, Sync: wal.SyncAlways})
			if err != nil {
				return fmt.Errorf("open warehouse log: %w", err)
			}
			addr, err := w.Listen("127.0.0.1:0")
			if err != nil {
				wl.Close()
				return fmt.Errorf("warehouse listen: %w", err)
			}

			senders := make([]*monitor.ReliableSender, agents)
			for i := range senders {
				senders[i] = &monitor.ReliableSender{
					Addr:       addr,
					AgentID:    fmt.Sprintf("disk-agent-%02d", i),
					Seed:       stats.Split(r.seed, "diskwall", r.id, "sender", strconv.Itoa(i)),
					Backoff:    time.Millisecond,
					BackoffMax: 50 * time.Millisecond,
					Timeout:    2 * time.Second,
					Chunk:      16,
				}
			}
			next := make([]int, agents)
			queue := func(n int) {
				for a, s := range senders {
					for k := 0; k < n; k++ {
						s.Queue(diskSample(a, next[a]))
						next[a]++
					}
				}
			}
			flushAll := func(attempts int) error {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				var firstErr error
				failed := 0
				for _, s := range senders {
					if err := s.Flush(ctx, attempts); err != nil {
						failed++
						if firstErr == nil {
							firstErr = err
						}
					}
				}
				if firstErr != nil {
					return fmt.Errorf("%d of %d senders unflushed: %w", failed, len(senders), firstErr)
				}
				return nil
			}
			totals := func() monitor.SenderCounters {
				var t monitor.SenderCounters
				for _, s := range senders {
					c := s.Counters()
					t.Queued += c.Queued
					t.DroppedQueue += c.DroppedQueue
					t.Acked += c.Acked
					t.ServerShed += c.ServerShed
					t.Pending += int64(s.Pending())
				}
				return t
			}
			// accounting is the two-sided ledger: the sender counters
			// reconcile to Queued with no slack, and the warehouse's books
			// agree sample for sample — acks equal admitted-and-stored,
			// sheds equal limiter-shed plus disk-shed, globally and per
			// shard.
			accounting := func() error {
				t := totals()
				if got := t.Acked + t.ServerShed + t.DroppedQueue + t.Pending; got != t.Queued {
					return fmt.Errorf("sender ledger leaks: queued %d but acked %d + shed %d + dropped %d + pending %d = %d",
						t.Queued, t.Acked, t.ServerShed, t.DroppedQueue, t.Pending, got)
				}
				m := w.Metrics()
				if m.AckedSamples != t.Acked {
					return fmt.Errorf("warehouse acked %d samples, senders hold acks for %d", m.AckedSamples, t.Acked)
				}
				if m.ShedIngest+m.ShedDisk != t.ServerShed {
					return fmt.Errorf("warehouse shed %d (%d limiter + %d disk), senders were told %d",
						m.ShedIngest+m.ShedDisk, m.ShedIngest, m.ShedDisk, t.ServerShed)
				}
				var stored, shardShed int64
				for _, sh := range m.Shards {
					stored += int64(sh.Samples)
					shardShed += sh.Shed
				}
				if stored != t.Acked {
					return fmt.Errorf("warehouse stores %d samples but acked %d — an ack without durability", stored, t.Acked)
				}
				if shardShed != m.ShedIngest+m.ShedDisk {
					return fmt.Errorf("per-shard shed %d does not sum to global %d", shardShed, m.ShedIngest+m.ShedDisk)
				}
				return nil
			}

			r.phase("steady")
			queue(steady)
			r.check("steady-ingest-clean", flushAll(10))
			r.check("steady-all-acked", func() error {
				t := totals()
				if t.Acked != t.Queued || t.Pending != 0 || t.ServerShed != 0 {
					return fmt.Errorf("queued %d: acked %d, shed %d, pending %d — want all acked",
						t.Queued, t.Acked, t.ServerShed, t.Pending)
				}
				return nil
			}())

			r.phase("brownout")
			ffs.SetDiskBudget(brownoutBudget)
			queue(burst)
			r.check("brownout-flush-completes", flushAll(10))
			r.check("enospc-actually-fired", func() error {
				if c := ffs.Counters(); c.NoSpace == 0 {
					return errors.New("the disk never refused a write — no brownout happened")
				}
				return nil
			}())
			r.check("degraded-mode-latched", func() error {
				if !w.DiskDegraded() {
					return errors.New("disk-full journal failures did not latch degraded mode")
				}
				if !w.UnderPressure() {
					return errors.New("degraded warehouse does not report pressure")
				}
				return nil
			}())
			r.check("brownout-sheds-not-acks", func() error {
				t := totals()
				if t.ServerShed == 0 {
					return errors.New("nothing was shed against a full disk")
				}
				if m := w.Metrics(); m.ShedDisk == 0 {
					return errors.New("no sample attributed to the disk-degraded gate")
				}
				return nil
			}())
			r.check("acks-stay-honest", accounting())
			r.check("reads-serve-degraded", func() error {
				t := totals()
				if got := w.Stats(); int64(got.Samples) != t.Acked {
					return fmt.Errorf("degraded warehouse serves %d samples, want the %d acked", got.Samples, t.Acked)
				}
				return nil
			}())

			r.phase("heal")
			ffs.SetDiskBudget(-1)
			w.ResumeIngest()
			queue(after)
			r.check("post-heal-ingest-clean", flushAll(10))
			r.check("nothing-left-pending", func() error {
				if t := totals(); t.Pending != 0 {
					return fmt.Errorf("%d samples still pending after the heal", t.Pending)
				}
				return nil
			}())
			r.check("accounting-exact", accounting())

			r.phase("recovery")
			for _, s := range senders {
				s.Close()
			}
			w.Close()
			pre, preErr := snapshotOf(w)
			if preErr != nil {
				return fmt.Errorf("pre-recovery snapshot: %w", preErr)
			}
			r.check("journal-closes-clean", wl.Close())
			t := totals()
			w2 := monitor.NewWarehouseShards(0, shards)
			wl2, err := monitor.OpenWarehouseLog(w2, walDir, 1<<20, wal.Options{})
			if err != nil {
				r.check("recovery-reopens", err)
				return nil
			}
			r.check("recovery-reopens", nil)
			defer wl2.Close()
			r.check("recovery-counts-acked", func() error {
				rec := wl2.Recovery()
				if got := int64(rec.Restored + rec.Replayed); got != t.Acked {
					return fmt.Errorf("recovered %d samples, want the %d acked (restored %d + replayed %d)",
						got, t.Acked, rec.Restored, rec.Replayed)
				}
				return nil
			}())
			r.check("recovery-byte-identical", func() error {
				post, err := snapshotOf(w2)
				if err != nil {
					return err
				}
				if !bytes.Equal(pre, post) {
					return fmt.Errorf("recovered snapshot (%d bytes) differs from the pre-close snapshot (%d bytes)",
						len(post), len(pre))
				}
				return nil
			}())
			return nil
		},
	}
}

// FsyncPoison runs durable ingest under randomly failing fsyncs and holds
// the poisoning contract: a failed fsync surfaces as typed ErrPoisoned and
// is never re-acked — the poisoned segment's doubtful tail is truncated to
// the durable watermark and the writer rotates — so recovery through a
// clean filesystem replays exactly the acknowledged set, byte for byte,
// twice over.
func FsyncPoison() *DiskScenario {
	const (
		shards  = 2
		agents  = 4
		samples = 600
	)
	return &DiskScenario{
		ID:   "fsync-poison",
		Name: "Fsync poisoning",
		Description: "Randomly failing fsyncs on the journal lanes: failed syncs poison " +
			"their segment (typed ErrPoisoned, never re-acked), the writer rotates, and " +
			"recovery replays exactly the acked set — byte-identical, deterministically.",
		run: func(r *diskRig) error {
			r.servers = agents
			ffs, err := r.faultFS(fsx.Profile{SyncErrProb: 0.08})
			if err != nil {
				return err
			}
			w := monitor.NewWarehouseShards(0, shards)
			walDir := filepath.Join(r.root, "wal")
			wl, err := monitor.OpenWarehouseLog(w, walDir, 64,
				wal.Options{FS: ffs, Sync: wal.SyncAlways, SegmentBytes: 4 << 10})
			if err != nil {
				return fmt.Errorf("open warehouse log: %w", err)
			}

			r.phase("ingest")
			var acked []monitor.Sample
			failures, sawPoison := 0, false
			var untyped error
			for i := 0; i < samples; i++ {
				s := diskSample(i%agents, i)
				if err := w.IngestDurable(s); err != nil {
					failures++
					if errors.Is(err, wal.ErrPoisoned) {
						sawPoison = true
					}
					if !storageErrTyped(err) && untyped == nil {
						untyped = err
					}
					continue
				}
				acked = append(acked, s)
			}
			r.check("sync-faults-fired", func() error {
				if c := ffs.Counters(); c.SyncFaults == 0 {
					return errors.New("no fsync ever failed — the drill did not happen")
				}
				return nil
			}())
			r.check("poison-surfaces-typed", func() error {
				if !sawPoison {
					return fmt.Errorf("%d ingest failures, none typed ErrPoisoned", failures)
				}
				return nil
			}())
			r.check("failures-all-typed", func() error {
				if untyped != nil {
					return fmt.Errorf("untyped storage failure escaped: %v", untyped)
				}
				return nil
			}())
			r.check("poison-latches-degraded", func() error {
				if !w.DiskDegraded() {
					return errors.New("poisoned journal did not latch degraded mode")
				}
				return nil
			}())

			r.phase("recovery")
			r.check("close-failure-typed", func() error {
				if err := wl.Close(); err != nil && !storageErrTyped(err) {
					return fmt.Errorf("close error is untyped: %v", err)
				}
				return nil
			}())
			// The reference: a clean warehouse holding exactly the acked
			// samples in ingest order.
			ref := monitor.NewWarehouseShards(0, shards)
			for _, s := range acked {
				ref.Ingest(s)
			}
			want, err := snapshotOf(ref)
			if err != nil {
				return fmt.Errorf("reference snapshot: %w", err)
			}
			recoverOnce := func() ([]byte, int, error) {
				w2 := monitor.NewWarehouseShards(0, shards)
				wl2, err := monitor.OpenWarehouseLog(w2, walDir, 64, wal.Options{})
				if err != nil {
					return nil, 0, err
				}
				defer wl2.Close()
				rec := wl2.Recovery()
				snap, err := snapshotOf(w2)
				return snap, rec.Restored + rec.Replayed, err
			}
			snap1, n1, err1 := recoverOnce()
			r.check("recovery-succeeds", err1)
			if err1 != nil {
				return nil
			}
			r.check("replay-is-exactly-acked", func() error {
				if n1 != len(acked) {
					return fmt.Errorf("recovered %d samples, want the %d acked", n1, len(acked))
				}
				if !bytes.Equal(snap1, want) {
					return errors.New("recovered state differs from a clean rebuild of the acked set — " +
						"a poisoned segment's doubtful bytes resurfaced or an acked record vanished")
				}
				return nil
			}())
			snap2, n2, err2 := recoverOnce()
			r.check("recovery-deterministic", func() error {
				if err2 != nil {
					return fmt.Errorf("second recovery failed: %w", err2)
				}
				if n2 != n1 || !bytes.Equal(snap1, snap2) {
					return errors.New("two recoveries of the same wreckage disagree")
				}
				return nil
			}())
			return nil
		},
	}
}

// TornRename batters a raw WAL with torn writes and failed checkpoint
// renames, then crashes it — every unsynced tail torn at a seeded point —
// and requires: the newest successfully renamed checkpoint survives intact
// (rename is atomic: it happened or it did not), replay equals exactly the
// records acked since it, no stale checkpoint temp files outlive recovery,
// and two recoveries of the wreckage agree byte for byte.
func TornRename() *DiskScenario {
	const (
		records   = 400
		ckptEvery = 20
	)
	return &DiskScenario{
		ID:   "torn-rename",
		Name: "Torn writes and failed checkpoint renames",
		Description: "Torn appends, failed checkpoint renames, then a crash that tears " +
			"every unsynced tail: the last renamed checkpoint survives bit-identical, " +
			"replay is exactly the records acked since it, and no temp files survive.",
		run: func(r *diskRig) error {
			ffs, err := r.faultFS(fsx.Profile{WriteErrProb: 0.12, RenameErrProb: 0.4})
			if err != nil {
				return err
			}
			dir := filepath.Join(r.root, "wal")
			log, _, err := wal.Open(dir, wal.Options{FS: ffs, Sync: wal.SyncAlways, SegmentBytes: 512})
			if err != nil {
				return fmt.Errorf("open wal: %w", err)
			}

			r.phase("batter")
			var ackedSince [][]byte // records acked after the last successful checkpoint
			var lastCkpt []byte
			ckptOK := 0
			var untypedAppend, untypedCkpt error
			for i := 0; i < records; i++ {
				rec := []byte(fmt.Sprintf("torn-rename record %04d", i))
				if err := log.Append(rec); err != nil {
					if !storageErrTyped(err) && untypedAppend == nil {
						untypedAppend = err
					}
					continue
				}
				ackedSince = append(ackedSince, rec)
				if (i+1)%ckptEvery == 0 {
					state := []byte(fmt.Sprintf("checkpoint state through %04d (%d acked)", i, len(ackedSince)))
					if err := log.Checkpoint(state); err != nil {
						if !storageErrTyped(err) && untypedCkpt == nil {
							untypedCkpt = err
						}
						continue
					}
					lastCkpt = state
					ckptOK++
					ackedSince = ackedSince[:0]
				}
			}
			r.check("write-and-rename-faults-fired", func() error {
				c := ffs.Counters()
				if c.WriteFaults == 0 {
					return errors.New("no write was ever torn")
				}
				if c.RenameFaults == 0 {
					return errors.New("no rename ever failed")
				}
				return nil
			}())
			r.check("append-errors-typed", func() error {
				if untypedAppend != nil {
					return fmt.Errorf("untyped append failure: %v", untypedAppend)
				}
				return nil
			}())
			r.check("checkpoint-errors-typed", func() error {
				if untypedCkpt != nil {
					return fmt.Errorf("untyped checkpoint failure: %v", untypedCkpt)
				}
				return nil
			}())
			r.check("some-checkpoint-committed", func() error {
				if ckptOK == 0 {
					return errors.New("no checkpoint ever committed; the survival invariant is vacuous")
				}
				return nil
			}())

			r.phase("crash")
			if err := ffs.Crash(); err != nil {
				return fmt.Errorf("crash tear: %w", err)
			}
			// The crashed log's handles are dead; recovery through a fresh,
			// clean view of the directory is the only way forward.

			r.phase("recovery")
			recoverOnce := func() (*wal.Recovered, error) {
				l, rec, err := wal.Open(dir, wal.Options{})
				if err != nil {
					return nil, err
				}
				if err := l.Close(); err != nil {
					return nil, fmt.Errorf("close recovered log: %w", err)
				}
				return rec, nil
			}
			rec1, err := recoverOnce()
			r.check("recovery-succeeds", err)
			if err != nil {
				return nil
			}
			r.check("last-renamed-checkpoint-survives", func() error {
				if !bytes.Equal(rec1.Checkpoint, lastCkpt) {
					return fmt.Errorf("recovered checkpoint %q, want the last committed %q",
						rec1.Checkpoint, lastCkpt)
				}
				return nil
			}())
			r.check("replay-is-exactly-acked", func() error {
				if len(rec1.Records) != len(ackedSince) {
					return fmt.Errorf("replayed %d records, want the %d acked since the checkpoint",
						len(rec1.Records), len(ackedSince))
				}
				for i := range rec1.Records {
					if !bytes.Equal(rec1.Records[i], ackedSince[i]) {
						return fmt.Errorf("record %d diverges: got %q, acked %q", i, rec1.Records[i], ackedSince[i])
					}
				}
				return nil
			}())
			r.check("no-stale-temp-files", func() error {
				entries, err := fsx.OS.ReadDir(dir)
				if err != nil {
					return err
				}
				for _, e := range entries {
					if strings.HasSuffix(e.Name(), ".tmp") {
						return fmt.Errorf("stale temp file %s survived recovery", e.Name())
					}
				}
				return nil
			}())
			rec2, err := recoverOnce()
			r.check("recovery-deterministic", func() error {
				if err != nil {
					return fmt.Errorf("second recovery failed: %w", err)
				}
				if !bytes.Equal(rec2.Checkpoint, rec1.Checkpoint) || len(rec2.Records) != len(rec1.Records) {
					return errors.New("two recoveries of the same wreckage disagree")
				}
				for i := range rec2.Records {
					if !bytes.Equal(rec2.Records[i], rec1.Records[i]) {
						return fmt.Errorf("record %d differs between recoveries", i)
					}
				}
				return nil
			}())
			return nil
		},
	}
}

// CorruptReadRecovery writes a clean, durable log, then recovers it
// through a bit-flipping read path: every recovery attempt must either
// refuse with typed ErrCorruptRecord or return only byte-identical true
// records — a prefix truncated at the documented record boundary — never
// an invented or reordered one. The final clean re-read must be
// deterministic.
func CorruptReadRecovery() *DiskScenario {
	const (
		records = 120
		ckptAt  = 59
	)
	return &DiskScenario{
		ID:   "corrupt-read-recovery",
		Name: "Corrupt-read recovery",
		Description: "Bit rot on the recovery read path: every attempt either refuses " +
			"with typed ErrCorruptRecord or yields only byte-identical true records " +
			"truncated at a record boundary — corruption is never silently recovered.",
		run: func(r *diskRig) error {
			dir := filepath.Join(r.root, "wal")
			log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, SegmentBytes: 512})
			if err != nil {
				return fmt.Errorf("open wal: %w", err)
			}
			trueCkpt := []byte(fmt.Sprintf("checkpoint state through %04d", ckptAt))
			var trueTail [][]byte // records the checkpoint does not cover
			for i := 0; i < records; i++ {
				rec := []byte(fmt.Sprintf("corrupt-read record %04d", i))
				if err := log.Append(rec); err != nil {
					return fmt.Errorf("build append %d: %w", i, err)
				}
				if i > ckptAt {
					trueTail = append(trueTail, rec)
				}
				if i == ckptAt {
					if err := log.Checkpoint(trueCkpt); err != nil {
						return fmt.Errorf("build checkpoint: %w", err)
					}
				}
			}
			if err := log.Close(); err != nil {
				return fmt.Errorf("build close: %w", err)
			}

			// isTruePrefix: the recovered set is byte-identical true records
			// forming a contiguous prefix of the real tail — nothing
			// invented, nothing reordered, truncation only at the end.
			isTruePrefix := func(got [][]byte) error {
				if len(got) > len(trueTail) {
					return fmt.Errorf("recovered %d records from a log holding %d", len(got), len(trueTail))
				}
				for i := range got {
					if !bytes.Equal(got[i], trueTail[i]) {
						return fmt.Errorf("record %d diverges from the true log: got %q, want %q",
							i, got[i], trueTail[i])
					}
				}
				return nil
			}

			r.phase("corrupt-reads")
			ffs, err := r.faultFS(fsx.Profile{ReadCorruptProb: 0.25})
			if err != nil {
				return err
			}
			refused, succeeded := 0, 0
			var badErr, badSet error
			// At least 6 attempts, and keep going (bounded) until the read
			// path has actually corrupted something, so the drill is never
			// vacuous at an unlucky seed.
			for k := 0; k < 24 && (k < 6 || ffs.Counters().ReadCorrupts == 0); k++ {
				l, rec, err := wal.Open(dir, wal.Options{FS: ffs})
				if err != nil {
					refused++
					if !errors.Is(err, wal.ErrCorruptRecord) && badErr == nil {
						badErr = err
					}
					continue
				}
				succeeded++
				if !bytes.Equal(rec.Checkpoint, trueCkpt) && badSet == nil {
					badSet = errors.New("a corrupted read returned a checkpoint that differs from the committed bytes")
				}
				if err := isTruePrefix(rec.Records); err != nil && badSet == nil {
					badSet = err
				}
				if err := l.Close(); err != nil && badSet == nil {
					badSet = fmt.Errorf("close after corrupted-read recovery: %w", err)
				}
			}
			r.check("read-corruption-fired", func() error {
				if c := ffs.Counters(); c.ReadCorrupts == 0 {
					return errors.New("the read path never corrupted a byte — the drill did not happen")
				}
				return nil
			}())
			r.check("corruption-refusals-typed", func() error {
				if badErr != nil {
					return fmt.Errorf("a recovery refusal was not typed ErrCorruptRecord: %v", badErr)
				}
				return nil
			}())
			r.check("no-invented-records", func() error {
				if badSet != nil {
					return badSet
				}
				return nil
			}())

			r.phase("clean-reread")
			recoverClean := func() (*wal.Recovered, error) {
				l, rec, err := wal.Open(dir, wal.Options{})
				if err != nil {
					return nil, err
				}
				if err := l.Close(); err != nil {
					return nil, fmt.Errorf("close: %w", err)
				}
				return rec, nil
			}
			rec1, err := recoverClean()
			r.check("clean-recovery-succeeds", err)
			if err != nil {
				return nil
			}
			r.check("clean-recovery-at-record-boundary", func() error {
				if !bytes.Equal(rec1.Checkpoint, trueCkpt) {
					return errors.New("clean recovery lost the committed checkpoint")
				}
				return isTruePrefix(rec1.Records)
			}())
			rec2, err := recoverClean()
			r.check("recovery-deterministic", func() error {
				if err != nil {
					return fmt.Errorf("second clean recovery failed: %w", err)
				}
				if !bytes.Equal(rec2.Checkpoint, rec1.Checkpoint) || len(rec2.Records) != len(rec1.Records) {
					return errors.New("two clean recoveries disagree")
				}
				for i := range rec2.Records {
					if !bytes.Equal(rec2.Records[i], rec1.Records[i]) {
						return fmt.Errorf("record %d differs between clean recoveries", i)
					}
				}
				return nil
			}())
			return nil
		},
	}
}
