package jobstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chainckpt/internal/obs"
)

// openTest opens a journal with fsync off (tmpfs durability is not the
// point) and closes it with the test.
func openTest(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	opts.NoSync = true
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func rec(seq uint64, version uint64, state State) Record {
	return Record{
		ID: fmt.Sprintf("job-%d", seq), Seq: seq, Version: version, State: state,
		CreatedAt: time.Unix(1700000000, 0).UTC(),
		UpdatedAt: time.Unix(1700000000+int64(version), 0).UTC(),
	}
}

// TestStoreSemantics runs the shared Store contract against both
// implementations: latest-version-wins, duplicate drops, delete,
// ordering and MaxSeq.
func TestStoreSemantics(t *testing.T) {
	impls := map[string]func(t *testing.T) Store{
		"memory":  func(t *testing.T) Store { return NewMemory() },
		"journal": func(t *testing.T) Store { return openTest(t, t.TempDir(), Options{}) },
	}
	for name, open := range impls {
		t.Run(name, func(t *testing.T) {
			st := open(t)
			for _, r := range []Record{
				rec(1, 1, StateCreated),
				rec(1, 2, StatePlanned),
				rec(2, 1, StateCreated),
				rec(1, 1, StateCreated), // stale duplicate: must not regress
				rec(2, 2, StateDone),
			} {
				if err := st.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			got, ok := st.Get("job-1")
			if !ok || got.State != StatePlanned || got.Version != 2 {
				t.Fatalf("job-1 = %+v, ok=%v", got, ok)
			}
			list := st.List()
			if len(list) != 2 || list[0].ID != "job-1" || list[1].ID != "job-2" {
				t.Fatalf("list = %+v", list)
			}
			if st.MaxSeq() != 2 {
				t.Fatalf("maxseq = %d", st.MaxSeq())
			}
			if err := st.Delete("job-1"); err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Get("job-1"); ok {
				t.Fatal("deleted job still visible")
			}
			if got := len(st.List()); got != 1 {
				t.Fatalf("list after delete has %d jobs", got)
			}
			// Deletion does not forget the sequence watermark.
			if st.MaxSeq() != 2 {
				t.Fatalf("maxseq after delete = %d", st.MaxSeq())
			}
		})
	}
}

func TestJournalSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, dir, Options{})
	spec := json.RawMessage(`{"platform":"Hera"}`)
	for seq := uint64(1); seq <= 5; seq++ {
		r := rec(seq, 1, StateCreated)
		r.Spec = spec
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		r.Version, r.State, r.Progress = 2, StateRunning, int(seq)
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Delete("job-3"); err != nil {
		t.Fatal(err)
	}
	j.Close()

	re := openTest(t, dir, Options{})
	list := re.List()
	if len(list) != 4 {
		t.Fatalf("reopened list has %d jobs, want 4", len(list))
	}
	for _, r := range list {
		if r.State != StateRunning || r.Progress != int(r.Seq) || string(r.Spec) != string(spec) {
			t.Fatalf("replayed record mangled: %+v", r)
		}
	}
	if _, ok := re.Get("job-3"); ok {
		t.Fatal("tombstoned job resurrected by replay")
	}
	if re.MaxSeq() != 5 {
		t.Fatalf("maxseq = %d", re.MaxSeq())
	}
	// 10 transitions + 1 tombstone.
	st := re.Stats()
	if st.Replayed != 11 || st.SkippedDuplicates != 0 || st.SkippedCorrupt != 0 {
		t.Fatalf("replay stats: %+v", st)
	}
}

func TestJournalRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation; automatic compaction disabled so the
	// segment census is deterministic.
	j := openTest(t, dir, Options{SegmentBytes: 256, CompactEvery: -1})
	for seq := uint64(1); seq <= 20; seq++ {
		if err := j.Append(rec(seq, 1, StateDone)); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", st.Segments)
	}
	if err := j.Delete("job-7"); err != nil {
		t.Fatal(err)
	}

	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Segments != 1 || st.Compactions != 1 {
		t.Fatalf("post-compaction stats: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}

	// Everything survives the snapshot-only reopen; the tombstoned job
	// stays dead even though its tombstone frame is gone.
	j.Close()
	re := openTest(t, dir, Options{})
	if got := len(re.List()); got != 19 {
		t.Fatalf("list after compaction+reopen has %d jobs, want 19", got)
	}
	if _, ok := re.Get("job-7"); ok {
		t.Fatal("deleted job resurrected after compaction")
	}
	if re.MaxSeq() != 20 {
		t.Fatalf("maxseq = %d", re.MaxSeq())
	}
}

// TestCompactionPreservesSeqWatermark: deleting the highest-numbered
// job and compacting (which drops its tombstone) must not let MaxSeq
// regress after a reopen — ids would be reused otherwise.
func TestCompactionPreservesSeqWatermark(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, dir, Options{CompactEvery: -1})
	for seq := uint64(1); seq <= 3; seq++ {
		if err := j.Append(rec(seq, 1, StateDone)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Delete("job-3"); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	re := openTest(t, dir, Options{})
	if re.MaxSeq() != 3 {
		t.Fatalf("maxseq after tombstone compaction = %d, want 3", re.MaxSeq())
	}
}

func TestJournalAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, dir, Options{CompactEvery: 10})
	r := rec(1, 0, StateRunning)
	for v := uint64(1); v <= 25; v++ {
		r.Version = v
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.Compactions != 2 {
		t.Fatalf("25 appends at CompactEvery=10 should compact twice, stats: %+v", st)
	}
	j.Close()
	re := openTest(t, dir, Options{})
	got, ok := re.Get("job-1")
	if !ok || got.Version != 25 {
		t.Fatalf("job-1 after auto-compaction: %+v ok=%v", got, ok)
	}
}

func TestJournalClosedAppendFails(t *testing.T) {
	j := openTest(t, t.TempDir(), Options{})
	j.Close()
	if err := j.Append(rec(1, 1, StateCreated)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := j.Compact(); err == nil {
		t.Fatal("compact after close succeeded")
	}
}

// TestJournalIgnoresStrayFiles: leftover temporaries and foreign files
// in the store directory are not taken for segments.
func TestJournalIgnoresStrayFiles(t *testing.T) {
	dir := t.TempDir()
	j := openTest(t, dir, Options{})
	if err := j.Append(rec(1, 1, StateDone)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	for _, name := range []string{"snapshot.bin.tmp", "wal-1.log", "wal-00000001.log.tmp", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re := openTest(t, dir, Options{})
	if _, ok := re.Get("job-1"); !ok {
		t.Fatal("record lost among stray files")
	}
}

// TestMetricsFollowReopenedJournal: the collector families read the
// journal Open bound last, so reopening a store on the same Metrics
// (what a restart or the ledger's traced run does) rebinds them instead
// of registering the families a second time.
func TestMetricsFollowReopenedJournal(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	j := openTest(t, dir, Options{Metrics: m})
	for seq := uint64(1); seq <= 3; seq++ {
		if err := j.Append(rec(seq, 1, StateCreated)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	re := openTest(t, dir, Options{Metrics: m})
	if err := re.Delete("job-2"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"chainckpt_jobstore_replayed_total 3",
		"chainckpt_jobstore_jobs 2",
		"chainckpt_jobstore_append_seconds_count 4",
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("scrape missing %q:\n%s", want, sb.String())
		}
	}
}
