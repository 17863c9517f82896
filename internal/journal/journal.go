// Package journal provides the durability primitive behind crash-safe
// quditd: an append-only, length-prefixed, checksummed write-ahead log
// with atomic snapshot compaction.
//
// A journal is a pair of files in one directory, <name>.wal and
// <name>.snap. Consumers append small, self-describing records to the
// WAL on every state transition they must survive (job admitted, job
// settled, sweep cell finished); each append is fsynced before it
// returns, so an acknowledged record is on disk before the caller acts
// on it. When the WAL grows past the consumer's tolerance, the consumer
// folds its live state into a single snapshot blob, which Compact
// writes atomically (temp file + fsync + rename) before truncating the
// WAL back to its header. Recovery is Open: it returns the snapshot (if
// any) plus every intact WAL record appended since, and the consumer
// replays them in order.
//
// The recovery contract is deliberately asymmetric:
//
//   - A torn tail — fewer bytes than the last record's length prefix
//     promises — is the expected residue of a crash mid-append. Open
//     truncates it silently and the journal continues from the last
//     intact record.
//   - Anything else (bad magic, unknown version, checksum mismatch on a
//     complete record, absurd length) is corruption, and Open fails
//     loudly. Silently starting empty is the failure mode a journal
//     exists to prevent.
//
// The package stores opaque payload bytes and a one-byte record kind;
// schema and replay semantics belong to the consumer (see
// internal/serve and internal/experiment).
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

const (
	// formatVersion guards the on-disk record format. Bump it when the
	// encoding changes; Open refuses files written by another version.
	formatVersion = 1

	// headerSize is the fixed prelude of both the WAL and the snapshot
	// file: 4 magic bytes, 1 version byte, 3 reserved zero bytes.
	headerSize = 8

	// MaxRecord bounds a single record's payload. A length prefix above
	// it is treated as corruption, not as an instruction to allocate:
	// the largest legitimate payload (a snapshot of a full queue of
	// 8 MiB wire payloads) stays far below it, and without the cap a
	// flipped bit in a length prefix would ask Open for petabytes.
	MaxRecord = 64 << 20
)

// magic identifies a quditkit journal file.
var magic = [4]byte{'Q', 'D', 'J', 'L'}

// ErrCorrupt reports a journal file whose damage is not a torn tail:
// wrong magic, wrong version, an intact record whose checksum does not
// match, or a length prefix beyond MaxRecord. Open wraps it with file
// and offset context; callers should refuse to start.
var ErrCorrupt = errors.New("journal: corrupt")

// Record is one recovered WAL entry: the consumer-defined kind tag and
// the opaque payload exactly as appended.
type Record struct {
	Kind    uint8
	Payload []byte
}

// Recovery is everything Open salvaged from disk: the most recent
// snapshot (nil when none was ever compacted) and the intact WAL
// records appended after it, in append order. Replaying Snapshot then
// Records reconstructs the consumer's durable state.
type Recovery struct {
	Snapshot []byte
	Records  []Record
}

// Stats is a point-in-time gauge set for one journal, served under
// /v1/stats so operators can watch WAL growth and compaction cadence.
type Stats struct {
	// WALBytes is the current WAL file size, header included.
	WALBytes int64 `json:"wal_bytes"`
	// SnapshotBytes is the current snapshot file size, zero when no
	// compaction has happened yet.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// TailRecords counts WAL records not yet folded into a snapshot —
	// the journal's replay lag: how many records the next restart (or
	// compaction) must process.
	TailRecords int `json:"tail_records"`
	// Appends counts records fsynced since this process opened the
	// journal.
	Appends int64 `json:"appends"`
	// Compactions counts snapshot rewrites since this process opened
	// the journal.
	Compactions int64 `json:"compactions"`
	// Failures counts Append and Compact calls that returned an error
	// since this process opened the journal, including calls refused
	// after Close or after the journal broke. Consumers that continue
	// past a failed append still surface it here.
	Failures int64 `json:"failures"`
}

// Journal is an open write-ahead log. All methods are safe for
// concurrent use; appends serialize on an internal mutex, so callers
// pay one fsync per record.
type Journal struct {
	dir  string
	name string

	mu          sync.Mutex
	f           *os.File
	size        int64 // current WAL size; append offset
	snapBytes   int64
	tail        int
	appends     int64
	compactions int64
	failures    int64
	broken      error // sticky: set when an append failed mid-write
}

// walPath and snapPath locate the journal's two files.
func (j *Journal) walPath() string  { return filepath.Join(j.dir, j.name+".wal") }
func (j *Journal) snapPath() string { return filepath.Join(j.dir, j.name+".snap") }

// Open opens (creating if absent) the journal called name in dir and
// recovers its durable contents. A fresh journal returns an empty
// Recovery; an existing one returns the last compacted snapshot plus
// every intact record appended since. A torn final record — the residue
// of a crash mid-append — is truncated away silently; any other damage
// returns an error wrapping ErrCorrupt and leaves the files untouched
// for inspection.
func Open(dir, name string) (*Journal, Recovery, error) {
	j := &Journal{dir: dir, name: name}
	var rec Recovery

	snap, snapSize, err := readSnapshot(j.snapPath())
	if err != nil {
		return nil, Recovery{}, err
	}
	rec.Snapshot = snap
	j.snapBytes = snapSize

	f, err := os.OpenFile(j.walPath(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("journal: opening %s: %w", j.walPath(), err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, Recovery{}, fmt.Errorf("journal: reading %s: %w", j.walPath(), err)
	}

	switch {
	case len(data) == 0:
		// Fresh (or created-and-crashed-before-header) WAL: write the
		// header now so every later append lands after a synced prelude.
		if err := writeHeader(f); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		j.size = headerSize
	case len(data) < headerSize:
		// A header is written and synced in one operation before any
		// record; a short one can only be the residue of a crash during
		// journal creation, before anything was logged. Treat it as the
		// torn tail it is.
		if err := rewindTo(f, 0); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, Recovery{}, fmt.Errorf("journal: seeking %s: %w", j.walPath(), err)
		}
		if err := writeHeader(f); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		j.size = headerSize
	default:
		if err := checkHeader(data, j.walPath()); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		recs, good, err := scanRecords(data[headerSize:])
		if err != nil {
			f.Close()
			return nil, Recovery{}, fmt.Errorf("%w in %s at offset %d: %v", ErrCorrupt, j.walPath(), headerSize+good, err)
		}
		keep := int64(headerSize + good)
		if keep < int64(len(data)) {
			// Torn tail: drop the partial record so the next append
			// starts at a clean boundary.
			if err := rewindTo(f, keep); err != nil {
				f.Close()
				return nil, Recovery{}, err
			}
		}
		j.size = keep
		j.tail = len(recs)
		rec.Records = recs
	}

	if _, err := f.Seek(j.size, io.SeekStart); err != nil {
		f.Close()
		return nil, Recovery{}, fmt.Errorf("journal: seeking %s: %w", j.walPath(), err)
	}
	j.f = f
	return j, rec, nil
}

// writeHeader writes and syncs the fixed file prelude at the current
// offset (callers position the file first).
func writeHeader(f *os.File) error {
	var hdr [headerSize]byte
	copy(hdr[:4], magic[:])
	hdr[4] = formatVersion
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("journal: writing header to %s: %w", f.Name(), err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing %s: %w", f.Name(), err)
	}
	return nil
}

// checkHeader validates the fixed prelude of a journal file.
func checkHeader(data []byte, path string) error {
	if [4]byte(data[:4]) != magic {
		return fmt.Errorf("%w: %s is not a journal file (bad magic)", ErrCorrupt, path)
	}
	if data[4] != formatVersion {
		return fmt.Errorf("%w: %s is format version %d, this build speaks %d",
			ErrCorrupt, path, data[4], formatVersion)
	}
	return nil
}

// rewindTo truncates f to size and syncs, erasing a torn tail.
func rewindTo(f *os.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("journal: truncating torn tail of %s: %w", f.Name(), err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing %s: %w", f.Name(), err)
	}
	return nil
}

// scanRecords decodes every complete record in data (the WAL body,
// header stripped). It returns the records, the byte length of the
// intact prefix, and an error only for damage that is not a torn tail:
// a checksum mismatch on a complete record or a length prefix beyond
// MaxRecord. Trailing bytes short of a complete record are reported via
// good < len(data) with a nil error.
func scanRecords(data []byte) (recs []Record, good int, err error) {
	off := 0
	for {
		if len(data)-off < 4 {
			return recs, off, nil // torn or clean end
		}
		n := binary.LittleEndian.Uint32(data[off:])
		if n > MaxRecord {
			return recs, off, fmt.Errorf("record length %d exceeds cap %d", n, MaxRecord)
		}
		total := 4 + 1 + int(n) + 4
		if len(data)-off < total {
			return recs, off, nil // torn tail
		}
		kind := data[off+4]
		payload := data[off+5 : off+5+int(n)]
		sum := binary.LittleEndian.Uint32(data[off+5+int(n):])
		if sum != recordSum(kind, payload) {
			return recs, off, errors.New("record checksum mismatch")
		}
		// Copy out: data aliases the read buffer and payloads outlive it.
		recs = append(recs, Record{Kind: kind, Payload: append([]byte(nil), payload...)})
		off += total
	}
}

// recordSum is the integrity checksum over a record's kind and payload.
func recordSum(kind uint8, payload []byte) uint32 {
	crc := crc32.NewIEEE()
	crc.Write([]byte{kind})
	crc.Write(payload)
	return crc.Sum32()
}

// encodeRecord renders one record in the WAL wire format:
// [u32 little-endian payload length][u8 kind][payload][u32 crc32].
func encodeRecord(kind uint8, payload []byte) []byte {
	buf := make([]byte, 4+1+len(payload)+4)
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	buf[4] = kind
	copy(buf[5:], payload)
	binary.LittleEndian.PutUint32(buf[5+len(payload):], recordSum(kind, payload))
	return buf
}

// readSnapshot loads and validates the snapshot file. A missing file is
// a cold start (nil payload); a damaged one is an error wrapping
// ErrCorrupt — snapshots are written atomically, so unlike the WAL they
// have no legitimate torn state.
func readSnapshot(path string) ([]byte, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("journal: reading snapshot %s: %w", path, err)
	}
	if len(data) < headerSize+4+1+4 {
		return nil, 0, fmt.Errorf("%w: snapshot %s is truncated (%d bytes)", ErrCorrupt, path, len(data))
	}
	if err := checkHeader(data, path); err != nil {
		return nil, 0, err
	}
	recs, good, err := scanRecords(data[headerSize:])
	if err != nil {
		return nil, 0, fmt.Errorf("%w in snapshot %s: %v", ErrCorrupt, path, err)
	}
	if len(recs) != 1 || headerSize+good != len(data) {
		return nil, 0, fmt.Errorf("%w: snapshot %s does not hold exactly one intact record", ErrCorrupt, path)
	}
	return recs[0].Payload, int64(len(data)), nil
}

// Append fsyncs one record to the WAL and returns once it is durable.
// If a previous append failed partway through a write, the journal is
// broken — the on-disk tail may be torn under an alive process, and
// appending past it would turn recoverable damage into corruption — so
// every subsequent Append returns the original error and the caller
// should fail the operation it was trying to make durable.
func (j *Journal) Append(kind uint8, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.appendLocked(kind, payload)
	if err != nil {
		j.failures++
	}
	return err
}

// appendLocked is Append's body; the caller holds j.mu and counts a
// returned error as a failure.
func (j *Journal) appendLocked(kind uint8, payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("journal: record payload %d bytes exceeds cap %d", len(payload), MaxRecord)
	}
	if j.broken != nil {
		return j.broken
	}
	buf := encodeRecord(kind, payload)
	if _, err := j.f.Write(buf); err != nil {
		// Try to erase the possibly-partial write; if even that fails,
		// poison the journal rather than append after a torn middle.
		if terr := rewindTo(j.f, j.size); terr != nil {
			j.broken = fmt.Errorf("journal: append to %s failed and tail could not be rewound: %w", j.walPath(), err)
			return j.broken
		}
		if _, serr := j.f.Seek(j.size, io.SeekStart); serr != nil {
			j.broken = fmt.Errorf("journal: append to %s failed and offset could not be restored: %w", j.walPath(), err)
			return j.broken
		}
		return fmt.Errorf("journal: appending to %s: %w", j.walPath(), err)
	}
	if err := j.f.Sync(); err != nil {
		// The bytes may or may not be durable; the in-memory offset is
		// advanced so a later successful sync covers them, but the
		// caller must treat this record as not persisted.
		j.size += int64(len(buf))
		return fmt.Errorf("journal: syncing %s: %w", j.walPath(), err)
	}
	j.size += int64(len(buf))
	j.tail++
	j.appends++
	return nil
}

// Compact atomically replaces the snapshot with the given consumer
// state blob and truncates the WAL back to its header. The snapshot
// lands via temp file + fsync + rename, so a crash at any point leaves
// either the old snapshot with the old WAL tail, or the new snapshot
// with (at worst) a stale WAL tail that the consumer's replay must
// tolerate — journal record replay is required to be idempotent.
//
// Callers must ensure no Append that the snapshot does not already
// reflect can land between their state capture and this call (quditkit
// consumers hold their admission lock across both).
func (j *Journal) Compact(snapshot []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.compactLocked(snapshot)
	if err != nil {
		j.failures++
	}
	return err
}

// compactLocked is Compact's body; the caller holds j.mu and counts a
// returned error as a failure.
func (j *Journal) compactLocked(snapshot []byte) error {
	if len(snapshot) > MaxRecord {
		return fmt.Errorf("journal: snapshot %d bytes exceeds cap %d", len(snapshot), MaxRecord)
	}
	if j.broken != nil {
		return j.broken
	}

	var blob []byte
	blob = append(blob, magic[:]...)
	blob = append(blob, formatVersion, 0, 0, 0)
	blob = append(blob, encodeRecord(0, snapshot)...)
	if err := writeAtomic(j.snapPath(), blob); err != nil {
		return err
	}
	j.snapBytes = int64(len(blob))

	if err := rewindTo(j.f, headerSize); err != nil {
		// Old records now coexist with the new snapshot; replay
		// idempotence makes that safe, so the journal stays usable.
		j.compactions++
		return err
	}
	if _, err := j.f.Seek(headerSize, io.SeekStart); err != nil {
		j.broken = fmt.Errorf("journal: restoring offset after compaction of %s: %w", j.walPath(), err)
		return j.broken
	}
	j.size = headerSize
	j.tail = 0
	j.compactions++
	return nil
}

// writeAtomic writes data to path through a same-directory temp file,
// fsync, and rename, then syncs the directory so the rename itself is
// durable.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return fmt.Errorf("journal: creating snapshot temp in %s: %w", dir, err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	serr := f.Sync()
	cerr := f.Close()
	for _, err := range []error{werr, serr, cerr} {
		if err != nil {
			os.Remove(tmp)
			return fmt.Errorf("journal: writing snapshot %s: %w", path, err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: publishing snapshot %s: %w", path, err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Stats reports the journal's current gauges.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		WALBytes:      j.size,
		SnapshotBytes: j.snapBytes,
		TailRecords:   j.tail,
		Appends:       j.appends,
		Compactions:   j.compactions,
		Failures:      j.failures,
	}
}

// Close releases the WAL file handle. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken == nil {
		j.broken = errors.New("journal: closed")
	}
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
