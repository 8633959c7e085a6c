// The write-ahead journal backend of the job store. Records are
// appended as CRC-framed JSON to numbered segment files; a periodic
// compaction collapses the segments into one snapshot holding the
// latest record per job, written through a temporary file and atomic
// rename so a crash can never leave a half-written snapshot under the
// committed name. Opening a journal replays snapshot then segments,
// skipping damaged frames instead of aborting — the same
// damaged-data-is-skipped discipline as the checkpoint tier's
// RecoverLatest.
//
// Frame layout (little-endian):
//
//	uint32  payload length
//	uint32  CRC-32C (Castagnoli) of the payload
//	payload JSON-encoded Record
//
// Segment files ("wal-00000042.log") and the snapshot ("snapshot.bin")
// both start with an 8-byte magic and then hold only frames. A CRC
// mismatch skips one frame (the length field still bounds it); an
// implausible length abandons the rest of that file, since frame
// alignment itself is no longer trustworthy. Every restart starts a
// fresh segment, so a torn tail from a crash is never appended after.
package jobstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"chainckpt/internal/fault"
)

var (
	segMagic  = [8]byte{'C', 'J', 'W', 'L', 'v', '1', '\n', 0}
	snapMagic = [8]byte{'C', 'J', 'S', 'N', 'v', '1', '\n', 0}

	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// maxFrame bounds one record's payload; anything larger is framing
// corruption, not data.
const maxFrame = 16 << 20

const snapshotName = "snapshot.bin"

// Options tunes a Journal. The zero value selects the defaults.
type Options struct {
	// SegmentBytes rotates the active segment when it exceeds this size
	// (default 1 MiB).
	SegmentBytes int
	// CompactEvery compacts after this many appends (default 256;
	// negative disables automatic compaction).
	CompactEvery int
	// NoSync skips the fsync after each append and commit — only for
	// tests, where durability against power loss is not the point.
	NoSync bool
	// Faults, when non-nil, is fired at the journal's injection points
	// (see internal/fault): frame appends and the two sides of the
	// compaction rename. The chaos harness uses it to tear tails and
	// kill the "process" mid-commit; production stores leave it nil.
	Faults fault.Injector
	// Metrics, when non-nil, wires the journal into an obs registry:
	// append/fsync/compaction latency histograms and collectors over
	// the journal's Stats (see NewMetrics). Nil means uninstrumented.
	Metrics *Metrics
}

func (o Options) segmentBytes() int {
	if o.SegmentBytes <= 0 {
		return 1 << 20
	}
	return o.SegmentBytes
}

func (o Options) compactEvery() int {
	if o.CompactEvery == 0 {
		return 256
	}
	return o.CompactEvery
}

// Journal is the durable Store: a write-ahead log of lifecycle records.
type Journal struct {
	mu   sync.Mutex
	dir  string
	opts Options

	active     *os.File
	activeIdx  int
	activeSize int
	segments   int // live segment files, tracked so Stats needs no ReadDir
	sinceComp  int

	recs   map[string]Record
	maxSeq uint64
	stats  Stats
	closed bool
}

// Open opens (creating if necessary) a journaled job store under dir
// and replays its snapshot and segments into memory.
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: open: %w", err)
	}
	j := &Journal{dir: dir, opts: opts, recs: make(map[string]Record)}

	// Snapshot first: it is the compacted past of any segments it
	// outlived.
	if raw, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		j.replaySnapshot(raw)
	}

	idxs, err := j.segmentIndexes()
	if err != nil {
		return nil, err
	}
	maxIdx := 0
	for _, idx := range idxs {
		raw, err := os.ReadFile(j.segmentPath(idx))
		if err != nil {
			return nil, fmt.Errorf("jobstore: open: %w", err)
		}
		j.replayFile(raw, segMagic)
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	j.segments = len(idxs)

	// Always append to a fresh segment: a torn tail left by a crash must
	// never have new frames written after it.
	if err := j.startSegment(maxIdx + 1); err != nil {
		return nil, err
	}
	if opts.Metrics != nil {
		opts.Metrics.journal.Store(j)
	}
	return j, nil
}

// replaySnapshot applies a compacted snapshot: magic, the sequence
// watermark, then frames. The explicit watermark keeps MaxSeq exact
// even when compaction has dropped the tombstones of the highest-
// numbered jobs — ids must never be reused across restarts.
func (j *Journal) replaySnapshot(raw []byte) {
	if len(raw) < len(snapMagic)+8 || [8]byte(raw[:8]) != snapMagic {
		j.stats.SkippedCorrupt++
		return
	}
	if seq := binary.LittleEndian.Uint64(raw[8:16]); seq > j.maxSeq {
		j.maxSeq = seq
	}
	j.replayFrames(raw[len(snapMagic)+8:])
}

// replayFile applies every readable frame of one segment.
func (j *Journal) replayFile(raw []byte, magic [8]byte) {
	if len(raw) < len(magic) || [8]byte(raw[:8]) != magic {
		j.stats.SkippedCorrupt++
		return
	}
	j.replayFrames(raw[len(magic):])
}

func (j *Journal) replayFrames(frames []byte) {
	j.stats.SkippedCorrupt += readFrames(frames, func(payload []byte) {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil || rec.ID == "" {
			j.stats.SkippedCorrupt++
			return
		}
		j.stats.Replayed++
		if !j.apply(rec) {
			j.stats.SkippedDuplicates++
		}
	})
}

// apply installs a record if it is newer than what the map holds,
// reporting whether it was applied.
func (j *Journal) apply(rec Record) bool {
	if rec.Seq > j.maxSeq {
		j.maxSeq = rec.Seq
	}
	if cur, ok := j.recs[rec.ID]; ok && rec.Version <= cur.Version {
		return false
	}
	j.recs[rec.ID] = rec
	return true
}

// readFrames walks CRC-framed payloads, returning the number of frames
// it had to reject. A bad CRC skips one frame; an implausible length
// (or a tail too short for the declared payload) abandons the rest,
// because frame alignment is gone.
func readFrames(data []byte, apply func(payload []byte)) (corrupt uint64) {
	off := 0
	for off+8 <= len(data) {
		// Bound the raw uint32 before converting: a corrupted high-bit
		// length must not overflow int on 32-bit platforms and sneak past
		// the guards into the slice expression.
		size32 := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if size32 > maxFrame {
			return corrupt + 1 // corrupted length field: alignment is gone
		}
		size := int(size32)
		if off+8+size > len(data) {
			return corrupt + 1 // torn tail
		}
		payload := data[off+8 : off+8+size]
		off += 8 + size
		if crc32.Checksum(payload, castagnoli) != sum {
			corrupt++
			continue
		}
		apply(payload)
	}
	if off != len(data) {
		corrupt++ // trailing bytes too short to even frame
	}
	return corrupt
}

// appendFrame frames one payload onto buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// Append implements Store: frame, write, fsync, apply.
func (j *Journal) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: append: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(payload); err != nil {
		return err
	}
	j.apply(rec)
	return j.maintainLocked()
}

// Delete implements Store: append a tombstone one version past the
// live record.
func (j *Journal) Delete(id string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	cur, ok := j.recs[id]
	if !ok || cur.State == StateDeleted {
		return nil
	}
	tomb := Record{
		ID: id, Seq: cur.Seq, Version: cur.Version + 1,
		State: StateDeleted, CreatedAt: cur.CreatedAt, UpdatedAt: time.Now().UTC(),
	}
	payload, err := json.Marshal(tomb)
	if err != nil {
		return fmt.Errorf("jobstore: delete: %w", err)
	}
	if err := j.appendLocked(payload); err != nil {
		return err
	}
	j.apply(tomb)
	return j.maintainLocked()
}

// appendLocked writes one framed payload to the active segment.
func (j *Journal) appendLocked(payload []byte) error {
	if j.closed {
		return fmt.Errorf("jobstore: store is closed")
	}
	m := j.opts.Metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	frame := appendFrame(nil, payload)
	// The injector may tear the frame (write a prefix, then "die") or
	// kill the write entirely; whatever bytes it leaves are what a real
	// crash would have left on disk.
	frame, ferr := fault.Fire(j.opts.Faults, fault.JournalAppendFrame, frame)
	if len(frame) > 0 {
		if _, err := j.active.Write(frame); err != nil {
			return fmt.Errorf("jobstore: append: %w", err)
		}
	}
	if ferr != nil {
		return fmt.Errorf("jobstore: append: %w", ferr)
	}
	if !j.opts.NoSync {
		var fstart time.Time
		if m != nil {
			fstart = time.Now()
		}
		if err := j.active.Sync(); err != nil {
			return fmt.Errorf("jobstore: append: %w", err)
		}
		if m != nil {
			m.FsyncSeconds.ObserveSince(fstart)
		}
	}
	if m != nil {
		m.AppendSeconds.ObserveSince(start)
	}
	j.stats.Appends++
	j.activeSize += len(frame)
	j.sinceComp++
	return nil
}

// maintainLocked rotates and compacts as the options demand.
func (j *Journal) maintainLocked() error {
	if ce := j.opts.compactEvery(); ce > 0 && j.sinceComp >= ce {
		return j.compactLocked()
	}
	if j.activeSize >= j.opts.segmentBytes() {
		return j.startSegment(j.activeIdx + 1)
	}
	return nil
}

// Compact collapses the journal into one snapshot: the latest record of
// every job is written to a temporary file, fsync'd, and renamed over
// the committed snapshot; only then are the segments removed and a
// fresh one started. Tombstones are dropped — the frames that could
// resurrect their jobs die with the segments.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("jobstore: store is closed")
	}
	return j.compactLocked()
}

func (j *Journal) compactLocked() error {
	if m := j.opts.Metrics; m != nil {
		defer m.CompactSeconds.ObserveSince(time.Now())
	}
	buf := append([]byte(nil), snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, j.maxSeq)
	for _, rec := range sortedRecords(j.recs) {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("jobstore: compact: %w", err)
		}
		buf = appendFrame(buf, payload)
	}
	path := filepath.Join(j.dir, snapshotName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	if !j.opts.NoSync {
		if err := syncFile(tmp); err != nil {
			return fmt.Errorf("jobstore: compact: %w", err)
		}
	}
	// Compaction commits in two steps — rename the snapshot, then drop
	// the segments — and the injection points bracket the rename: a
	// crash before it leaves only the temporary (ignored on replay), a
	// crash after it leaves snapshot and segments coexisting (replayed
	// records deduplicate by version).
	if _, err := fault.Fire(j.opts.Faults, fault.JournalCompactBeforeRename, nil); err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	if _, err := fault.Fire(j.opts.Faults, fault.JournalCompactAfterRename, nil); err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}

	// The snapshot holds everything: drop the segments (and the
	// tombstones they were keeping dead).
	idxs, err := j.segmentIndexes()
	if err != nil {
		return err
	}
	j.active.Close()
	j.active = nil
	for _, idx := range idxs {
		os.Remove(j.segmentPath(idx))
	}
	j.segments = 0
	for id, rec := range j.recs {
		if rec.State == StateDeleted {
			delete(j.recs, id)
		}
	}
	j.stats.Compactions++
	j.sinceComp = 0
	return j.startSegment(j.activeIdx + 1)
}

// startSegment opens a fresh active segment with the given index.
func (j *Journal) startSegment(idx int) error {
	if j.active != nil {
		j.active.Close()
	}
	f, err := os.OpenFile(j.segmentPath(idx), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: segment: %w", err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return fmt.Errorf("jobstore: segment: %w", err)
	}
	if !j.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("jobstore: segment: %w", err)
		}
	}
	j.active = f
	j.activeIdx = idx
	j.activeSize = len(segMagic)
	j.segments++
	return nil
}

// segmentIndexes lists the committed segment files in increasing order.
// Exact round-trip naming keeps stray temporaries out, exactly like the
// checkpoint tier's directory scan.
func (j *Journal) segmentIndexes() ([]int, error) {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: dir: %w", err)
	}
	var out []int
	for _, e := range ents {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &idx); err == nil &&
			e.Name() == fmt.Sprintf("wal-%08d.log", idx) {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out, nil
}

func (j *Journal) segmentPath(idx int) string {
	return filepath.Join(j.dir, fmt.Sprintf("wal-%08d.log", idx))
}

// Get implements Store.
func (j *Journal) Get(id string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.recs[id]
	if !ok || rec.State == StateDeleted {
		return Record{}, false
	}
	return rec, true
}

// List implements Store.
func (j *Journal) List() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return sortedRecords(j.recs)
}

// MaxSeq implements Store.
func (j *Journal) MaxSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.maxSeq
}

// Stats implements Store. It works entirely from memory — a metrics
// scrape must not do directory I/O on the lock that serializes fsync'd
// appends.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.stats
	st.Jobs = liveCount(j.recs)
	st.Segments = j.segments
	return st
}

// Close implements Store.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.active == nil {
		return nil
	}
	err := j.active.Close()
	j.active = nil
	return err
}

// syncFile fsyncs one path.
func syncFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
