package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// reopen closes j (if non-nil) and opens the same journal again,
// failing the test on error — the common crash-restart move.
func reopen(t *testing.T, j *Journal, dir, name string) (*Journal, Recovery) {
	t.Helper()
	if j != nil {
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	nj, rec, err := Open(dir, name)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return nj, rec
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec, err := Open(dir, "jobs")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh journal recovered state: %+v", rec)
	}
	want := []Record{
		{Kind: 1, Payload: []byte(`{"id":"j-000001"}`)},
		{Kind: 2, Payload: []byte{}},
		{Kind: 7, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	for _, r := range want {
		if err := j.Append(r.Kind, r.Payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}

	j, rec = reopen(t, j, dir, "jobs")
	defer j.Close()
	if rec.Snapshot != nil {
		t.Fatalf("unexpected snapshot: %q", rec.Snapshot)
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
	}
	for i, r := range rec.Records {
		if r.Kind != want[i].Kind || !bytes.Equal(r.Payload, want[i].Payload) {
			t.Fatalf("record %d = kind %d payload %d bytes, want kind %d payload %d bytes",
				i, r.Kind, len(r.Payload), want[i].Kind, len(want[i].Payload))
		}
	}
}

func TestTornTailTruncatedCleanly(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, "jobs")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Append(1, []byte("intact")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a crash mid-append: a full length prefix promising more
	// bytes than exist, plus part of the payload.
	path := filepath.Join(dir, "jobs.wal")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var torn []byte
	torn = binary.LittleEndian.AppendUint32(torn, 100)
	torn = append(torn, 3, 'p', 'a', 'r')
	if err := os.WriteFile(path, append(append([]byte{}, full...), torn...), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	j, rec := reopen(t, nil, dir, "jobs")
	if len(rec.Records) != 1 || string(rec.Records[0].Payload) != "intact" {
		t.Fatalf("recovered %+v, want the one intact record", rec.Records)
	}
	// The tail must be gone from disk, and the journal must keep
	// working from the clean boundary.
	if got, _ := os.ReadFile(path); len(got) != len(full) {
		t.Fatalf("WAL is %d bytes after recovery, want %d (torn tail erased)", len(got), len(full))
	}
	if err := j.Append(2, []byte("after")); err != nil {
		t.Fatalf("Append after torn-tail recovery: %v", err)
	}
	j, rec = reopen(t, j, dir, "jobs")
	defer j.Close()
	if len(rec.Records) != 2 || string(rec.Records[1].Payload) != "after" {
		t.Fatalf("after recovery+append, recovered %+v", rec.Records)
	}
}

func TestTornHeaderIsColdStart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	if err := os.WriteFile(path, []byte{'Q', 'D'}, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	j, rec, err := Open(dir, "jobs")
	if err != nil {
		t.Fatalf("Open over torn header: %v", err)
	}
	defer j.Close()
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("torn header recovered state: %+v", rec)
	}
	if err := j.Append(1, []byte("x")); err != nil {
		t.Fatalf("Append: %v", err)
	}
}

func TestChecksumMismatchFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, "jobs")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Append(1, []byte("first")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Append(1, []byte("second")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip one payload byte of the first record: a complete record
	// whose checksum no longer matches is corruption, not a torn tail.
	path := filepath.Join(dir, "jobs.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[headerSize+5] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	if _, _, err := Open(dir, "jobs"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over corrupt record = %v, want ErrCorrupt", err)
	}
}

func TestAbsurdLengthFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, "jobs")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, "jobs.wal")
	data, _ := os.ReadFile(path)
	data = binary.LittleEndian.AppendUint32(data, MaxRecord+1)
	data = append(data, bytes.Repeat([]byte{0}, 16)...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, _, err := Open(dir, "jobs"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over absurd length = %v, want ErrCorrupt", err)
	}
}

func TestBadMagicAndVersionFailLoudly(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobs.wal"), []byte("NOTAJRNL"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, _, err := Open(dir, "jobs"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over bad magic = %v, want ErrCorrupt", err)
	}

	dir = t.TempDir()
	hdr := append(append([]byte{}, magic[:]...), 99, 0, 0, 0)
	if err := os.WriteFile(filepath.Join(dir, "jobs.wal"), hdr, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, _, err := Open(dir, "jobs"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over future version = %v, want ErrCorrupt", err)
	}
}

// TestCompactionEquivalence drives the same record stream through two
// journals — one compacted mid-stream, one not — and checks that
// snapshot+tail recovery carries exactly the information the full log
// would have: the snapshot blob verbatim plus only post-compaction
// records.
func TestCompactionEquivalence(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, "jobs")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(1, []byte{byte(i)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	snapshot := []byte(`{"folded":5}`)
	if err := j.Compact(snapshot); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st := j.Stats(); st.TailRecords != 0 || st.Compactions != 1 || st.SnapshotBytes == 0 {
		t.Fatalf("post-compaction stats = %+v", st)
	}
	for i := 5; i < 8; i++ {
		if err := j.Append(1, []byte{byte(i)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}

	j, rec := reopen(t, j, dir, "jobs")
	defer j.Close()
	if !bytes.Equal(rec.Snapshot, snapshot) {
		t.Fatalf("recovered snapshot %q, want %q", rec.Snapshot, snapshot)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("recovered %d tail records, want 3", len(rec.Records))
	}
	for i, r := range rec.Records {
		if r.Payload[0] != byte(5+i) {
			t.Fatalf("tail record %d = %d, want %d", i, r.Payload[0], 5+i)
		}
	}
}

func TestCorruptSnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, "jobs")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := j.Compact([]byte("state")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, "jobs.snap")
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF // break the CRC
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, _, err := Open(dir, "jobs"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over corrupt snapshot = %v, want ErrCorrupt", err)
	}
}

func TestStatsAndClose(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, "jobs")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st := j.Stats(); st.WALBytes != headerSize || st.TailRecords != 0 {
		t.Fatalf("fresh stats = %+v", st)
	}
	if err := j.Append(1, []byte("abc")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	st := j.Stats()
	if st.TailRecords != 1 || st.Appends != 1 || st.WALBytes <= headerSize {
		t.Fatalf("stats after append = %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st.Failures != 0 {
		t.Fatalf("failures before any failed call = %d", st.Failures)
	}
	if err := j.Append(1, []byte("x")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := j.Compact([]byte("x")); err == nil {
		t.Fatal("Compact after Close succeeded")
	}
	if st := j.Stats(); st.Failures != 2 || st.Appends != 1 {
		t.Fatalf("stats after two refused calls = %+v, want failures 2, appends 1", st)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, "jobs")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer j.Close()
	huge := make([]byte, MaxRecord+1)
	if err := j.Append(1, huge); err == nil {
		t.Fatal("oversize Append succeeded")
	}
	if err := j.Compact(huge); err == nil {
		t.Fatal("oversize Compact succeeded")
	}
	if st := j.Stats(); st.Failures != 2 {
		t.Fatalf("failures after two oversize calls = %d, want 2", st.Failures)
	}
}
