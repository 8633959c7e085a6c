// The two-tier checkpoint store of the runtime supervisor. The memory
// tier holds the single most recent verified in-memory checkpoint (the
// paper's C_M mechanism: cheap, wiped by a fail-stop error); the disk
// tier persists checkpoints to stable storage (C_D) with a content
// fingerprint, so a restore can prove the bytes it hands back are the
// bytes that were saved. A Store with no directory keeps the disk tier
// in process memory — the right backend for simulations and tests, where
// "disk" only needs disk *semantics* (survives the modeled crash), not
// actual I/O.
package runtime

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"chainckpt/internal/obs"
)

// ckptMagic heads every disk checkpoint file; bump the version suffix
// when the layout changes.
var ckptMagic = [8]byte{'C', 'K', 'P', 'T', 'v', '1', '\n', 0}

// checkpoint is one stored state snapshot.
type checkpoint struct {
	boundary int
	data     []byte
	sum      [32]byte
}

// Store is the supervisor's two-tier checkpoint store. All methods are
// safe for concurrent use, though the supervisor drives one execution at
// a time.
type Store struct {
	mu  sync.Mutex
	dir string // "" = volatile disk tier

	mem  *checkpoint         // memory tier: latest in-memory checkpoint
	disk *checkpoint         // disk tier: latest disk checkpoint
	vol  map[int]*checkpoint // volatile disk backend (dir == "")
	ret  int                 // disk checkpoints retained (0 = all)

	// Observability children installed by the supervisor (nil when
	// uninstrumented; observations are nil-safe).
	fsyncH *obs.Histogram
	bytesH *obs.Histogram
}

// instrument installs the checkpoint fsync-duration and payload-size
// histograms; the supervisor calls it once per run when its Options
// carry Metrics.
func (s *Store) instrument(fsync, bytes *obs.Histogram) {
	s.mu.Lock()
	s.fsyncH = fsync
	s.bytesH = bytes
	s.mu.Unlock()
}

// NewStore opens a checkpoint store. With a non-empty dir the disk tier
// writes fingerprinted files under it (created if missing); with "" the
// disk tier lives in process memory.
func NewStore(dir string) (*Store, error) {
	s := &Store{dir: dir, vol: make(map[int]*checkpoint)}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runtime: checkpoint dir: %w", err)
		}
	}
	return s, nil
}

// SetRetention bounds how many disk checkpoint files are kept (older
// boundaries are pruned after each save); zero keeps everything.
func (s *Store) SetRetention(n int) {
	s.mu.Lock()
	s.ret = n
	s.mu.Unlock()
}

// SaveMemory records state as the in-memory checkpoint at boundary. The
// memory tier holds one checkpoint: the model never rolls back past the
// most recent one.
func (s *Store) SaveMemory(boundary int, data []byte) {
	s.mu.Lock()
	s.mem = snapshot(boundary, data)
	s.mu.Unlock()
}

// SaveDisk persists state as the disk checkpoint at boundary.
func (s *Store) SaveDisk(boundary int, data []byte) error {
	ck := snapshot(boundary, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytesH.Observe(float64(len(data)))
	if s.dir != "" {
		fsync, err := writeCheckpointFile(s.path(boundary), ck)
		if err != nil {
			return err
		}
		s.fsyncH.Observe(fsync.Seconds())
	} else {
		s.vol[boundary] = ck
	}
	s.disk = ck
	s.prune()
	return nil
}

// LoadMemory returns the latest in-memory checkpoint. It never fails
// once boundary 0 has been saved: the memory tier is process state.
func (s *Store) LoadMemory() (int, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mem == nil {
		return 0, nil, fmt.Errorf("runtime: memory tier is empty")
	}
	return s.mem.boundary, clone(s.mem.data), nil
}

// LoadDisk returns the latest disk checkpoint after verifying its
// content fingerprint, the restore path of a fail-stop recovery.
func (s *Store) LoadDisk() (int, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disk == nil {
		return 0, nil, fmt.Errorf("runtime: disk tier is empty")
	}
	if s.dir == "" {
		return s.disk.boundary, clone(s.disk.data), nil
	}
	ck, err := readCheckpointFile(s.path(s.disk.boundary))
	if err != nil {
		return 0, nil, err
	}
	return ck.boundary, ck.data, nil
}

// Resume returns the checkpoint execution should restart from. When a
// cold-start scan (RecoverLatest) has already reconciled this store,
// the seeded checkpoint is re-read and re-verified without a second
// directory scan; otherwise — or if that single file stopped verifying
// in the meantime — it falls back to the full scan.
func (s *Store) Resume() (int, []byte, error) {
	s.mu.Lock()
	seeded := s.disk != nil
	s.mu.Unlock()
	if seeded {
		if b, data, err := s.LoadDisk(); err == nil {
			return b, data, nil
		}
	}
	return s.RecoverLatest()
}

// RecoverLatest scans the disk tier for the most recent checkpoint whose
// fingerprint still verifies, skipping damaged files — the cold-start
// path of a supervisor resuming after a real crash. It returns boundary
// -1 when no valid checkpoint exists.
func (s *Store) RecoverLatest() (int, []byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bounds, err := s.boundaries()
	if err != nil {
		return -1, nil, err
	}
	sort.Sort(sort.Reverse(sort.IntSlice(bounds)))
	for _, b := range bounds {
		var ck *checkpoint
		if s.dir == "" {
			ck = s.vol[b]
			if sha256.Sum256(ck.data) != ck.sum {
				continue
			}
		} else {
			ck, err = readCheckpointFile(s.path(b))
			if err != nil {
				continue
			}
		}
		s.disk = ck
		s.mem = ck
		return ck.boundary, clone(ck.data), nil
	}
	return -1, nil, nil
}

// CheckpointDigest fingerprints one disk-tier checkpoint: the SHA-256
// of its canonical file encoding. Two stores hold bit-identical
// checkpoint sets exactly when their digest lists are equal — the
// equivalence replay recordings and chaos cells assert.
type CheckpointDigest struct {
	Boundary int    `json:"boundary"`
	SHA256   string `json:"sha256"`
	// Damaged marks a checkpoint whose stored bytes no longer verify
	// (the digest then covers the damaged bytes as found).
	Damaged bool `json:"damaged,omitempty"`
}

// Digests returns the content fingerprint of every checkpoint in the
// disk tier, in boundary order. Volatile and directory-backed tiers
// digest the same canonical encoding, so a run against either backend
// yields comparable digests.
func (s *Store) Digests() ([]CheckpointDigest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bounds, err := s.boundaries()
	if err != nil {
		return nil, err
	}
	sort.Ints(bounds)
	out := make([]CheckpointDigest, 0, len(bounds))
	for _, b := range bounds {
		var d CheckpointDigest
		if s.dir == "" {
			ck := s.vol[b]
			d = CheckpointDigest{Boundary: b, SHA256: fmt.Sprintf("%x", sha256.Sum256(encodeCheckpoint(ck)))}
			if sha256.Sum256(ck.data) != ck.sum {
				d.Damaged = true
			}
		} else {
			raw, err := os.ReadFile(s.path(b))
			if err != nil {
				return nil, fmt.Errorf("runtime: digest checkpoint %d: %w", b, err)
			}
			d = CheckpointDigest{Boundary: b, SHA256: fmt.Sprintf("%x", sha256.Sum256(raw))}
			if _, err := readCheckpointFile(s.path(b)); err != nil {
				d.Damaged = true
			}
		}
		out = append(out, d)
	}
	return out, nil
}

// Boundaries returns the boundaries currently held by the disk tier, in
// increasing order.
func (s *Store) Boundaries() ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bounds, err := s.boundaries()
	if err != nil {
		return nil, err
	}
	sort.Ints(bounds)
	return bounds, nil
}

func (s *Store) boundaries() ([]int, error) {
	if s.dir == "" {
		out := make([]int, 0, len(s.vol))
		for b := range s.vol {
			out = append(out, b)
		}
		return out, nil
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("runtime: checkpoint dir: %w", err)
	}
	var out []int
	for _, e := range ents {
		var b int
		// Require an exact round-trip so leftover temporaries
		// (ckpt-NNNNNN.bin.tmp from a crash mid-save) are not taken
		// for committed checkpoints: Sscanf tolerates trailing junk.
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%d.bin", &b); err == nil &&
			e.Name() == fmt.Sprintf("ckpt-%06d.bin", b) {
			out = append(out, b)
		}
	}
	return out, nil
}

// prune enforces the retention bound; caller holds the lock.
func (s *Store) prune() {
	if s.ret <= 0 || s.disk == nil {
		return
	}
	bounds, err := s.boundaries()
	if err != nil {
		return
	}
	sort.Sort(sort.Reverse(sort.IntSlice(bounds)))
	for _, b := range bounds[min(s.ret, len(bounds)):] {
		if s.dir == "" {
			delete(s.vol, b)
		} else {
			os.Remove(s.path(b))
		}
	}
}

func (s *Store) path(boundary int) string {
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-%06d.bin", boundary))
}

func snapshot(boundary int, data []byte) *checkpoint {
	return &checkpoint{boundary: boundary, data: clone(data), sum: sha256.Sum256(data)}
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// encodeCheckpoint lays a checkpoint out in the canonical file form:
// magic, boundary, payload length, SHA-256 fingerprint, payload. Both
// the directory backend (which writes these bytes) and the volatile
// backend (which only digests them) share this encoding, so checkpoint
// digests compare across backends.
func encodeCheckpoint(ck *checkpoint) []byte {
	buf := make([]byte, 0, len(ckptMagic)+16+32+len(ck.data))
	buf = append(buf, ckptMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ck.boundary))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ck.data)))
	buf = append(buf, ck.sum[:]...)
	return append(buf, ck.data...)
}

// writeCheckpointFile persists a checkpoint in its canonical encoding
// and returns how long the fsync alone took. The write goes through a
// temporary file, fsync, and rename so a process crash mid-save can
// never leave a half-written file under a checkpoint name. The rename
// survives a process crash only: no fsync of the directory follows it,
// so a power loss can still drop the new name.
func writeCheckpointFile(path string, ck *checkpoint) (time.Duration, error) {
	buf := encodeCheckpoint(ck)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("runtime: write checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return 0, fmt.Errorf("runtime: write checkpoint: %w", err)
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("runtime: sync checkpoint: %w", err)
	}
	fsync := time.Since(start)
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("runtime: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, fmt.Errorf("runtime: commit checkpoint: %w", err)
	}
	return fsync, nil
}

func readCheckpointFile(path string) (*checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runtime: read checkpoint: %w", err)
	}
	head := len(ckptMagic) + 16 + 32
	if len(raw) < head || [8]byte(raw[:8]) != ckptMagic {
		return nil, fmt.Errorf("runtime: %s: not a checkpoint file", path)
	}
	boundary := int(binary.LittleEndian.Uint64(raw[8:16]))
	size := binary.LittleEndian.Uint64(raw[16:24])
	var sum [32]byte
	copy(sum[:], raw[24:56])
	data := raw[head:]
	if uint64(len(data)) != size {
		return nil, fmt.Errorf("runtime: %s: truncated checkpoint (%d of %d payload bytes)",
			path, len(data), size)
	}
	if sha256.Sum256(data) != sum {
		return nil, fmt.Errorf("runtime: %s: fingerprint mismatch (checkpoint corrupted)", path)
	}
	return &checkpoint{boundary: boundary, data: data, sum: sum}, nil
}
