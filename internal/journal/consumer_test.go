package journal

import (
	"encoding/json"
	"strings"
	"testing"

	"quditkit/internal/metrics"
)

func TestDecodeSnapshotChecksVersion(t *testing.T) {
	type snap struct {
		Header
		Jobs []string `json:"jobs"`
	}
	data, _ := json.Marshal(snap{Header: Header{Version: 3, NextID: 9}, Jobs: []string{"a"}})
	if string(data) != `{"version":3,"next_id":9,"jobs":["a"]}` {
		t.Fatalf("snapshot bytes %s: the header must stay first", data)
	}
	var got snap
	h, err := DecodeSnapshot(data, 3, &got)
	if err != nil || h.NextID != 9 || len(got.Jobs) != 1 {
		t.Fatalf("DecodeSnapshot = %+v %+v, %v", h, got, err)
	}
	if _, err := DecodeSnapshot(data, 4, &got); err == nil || !strings.Contains(err.Error(), "version 3, this build speaks 4") {
		t.Fatalf("foreign version: %v", err)
	}
	if _, err := DecodeSnapshot([]byte("{not json"), 3, &got); err == nil {
		t.Fatal("corrupt snapshot decoded")
	}
	if h, err := DecodeSnapshot(nil, 3, &got); err != nil || h != (Header{}) || len(got.Jobs) != 1 {
		t.Fatalf("no snapshot: %+v %+v, %v", h, got, err)
	}
}

func TestCounterNotesOnlyItsIDs(t *testing.T) {
	c := Counter{Prefix: "j-", Max: 5}
	for _, id := range []string{"j-000003", "j-000012", "s-000099", "j-", "j-x1", "000077"} {
		c.Note(id)
	}
	if c.Max != 12 {
		t.Fatalf("Max = %d, want 12", c.Max)
	}
}

func TestJSONRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, "jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CompactJSON(Header{Version: 1, NextID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendJSON(7, map[string]string{"id": "j-000003"}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendJSON(7, func() {}); err == nil {
		t.Fatal("a value JSON cannot encode was appended")
	}
	j, rec := reopen(t, j, dir, "jobs")
	defer j.Close()
	if string(rec.Snapshot) != `{"version":1,"next_id":2}` || len(rec.Records) != 1 ||
		rec.Records[0].Kind != 7 || string(rec.Records[0].Payload) != `{"id":"j-000003"}` {
		t.Fatalf("recovered %q %+v", rec.Snapshot, rec.Records)
	}
}

func TestCompactDue(t *testing.T) {
	j, _, err := Open(t.TempDir(), "jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 2; i++ {
		if j.CompactDue(2) {
			t.Fatalf("due after %d records", i)
		}
		if err := j.Append(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if !j.CompactDue(2) || j.CompactDue(0) || j.CompactDue(-1) {
		t.Fatal("CompactDue: want due at the threshold, never for every <= 0")
	}
}

// TestStatusRendersConsumerBlocks pins the journal blocks quditd has
// always served: the /v1/stats JSON and, for the jobs and the sweeps
// journal, the seven /metrics families with their help text.
func TestStatusRendersConsumerBlocks(t *testing.T) {
	s := &Status{Stats: Stats{WALBytes: 1, SnapshotBytes: 2, TailRecords: 3, Appends: 4, Compactions: 5, Failures: 6}, Lag: 7, Replayed: 8}
	data, _ := json.Marshal(s)
	if want := `{"wal_bytes":1,"snapshot_bytes":2,"tail_records":3,"appends":4,"compactions":5,"failures":6,"lag":7,"replayed":8}`; string(data) != want {
		t.Fatalf("stats block %s, want %s", data, want)
	}

	render := func(write func(*metrics.Buffer)) string {
		var b metrics.Buffer
		write(&b)
		var out strings.Builder
		if _, err := b.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	for _, tc := range []struct {
		f    Family
		want func(*metrics.Buffer)
	}{
		{
			Family{Prefix: "quditd_journal", Lag: "Journaled jobs not yet settled.", Replayed: "Jobs restored from the journal at startup."},
			func(b *metrics.Buffer) {
				b.Family("quditd_journal_wal_bytes", "Write-ahead log size.", metrics.Gauge).Add(1)
				b.Family("quditd_journal_tail_records", "WAL records not yet folded into a snapshot.", metrics.Gauge).Add(3)
				b.Family("quditd_journal_lag", "Journaled jobs not yet settled.", metrics.Gauge).Add(7)
				b.Family("quditd_journal_appends_total", "Journal records fsynced.", metrics.Counter).Add(4)
				b.Family("quditd_journal_compactions_total", "Journal snapshot rewrites.", metrics.Counter).Add(5)
				b.Family("quditd_journal_failures_total", "Journal appends and compactions that failed.", metrics.Counter).Add(6)
				b.Family("quditd_journal_replayed", "Jobs restored from the journal at startup.", metrics.Gauge).Add(8)
			},
		},
		{
			Family{Prefix: "quditd_sweep_journal", Subject: "Sweep", Lag: "Journaled sweeps not yet settled.", Replayed: "Sweeps resumed from the journal at startup."},
			func(b *metrics.Buffer) {
				b.Family("quditd_sweep_journal_wal_bytes", "Sweep write-ahead log size.", metrics.Gauge).Add(1)
				b.Family("quditd_sweep_journal_tail_records", "Sweep WAL records not yet folded into a snapshot.", metrics.Gauge).Add(3)
				b.Family("quditd_sweep_journal_lag", "Journaled sweeps not yet settled.", metrics.Gauge).Add(7)
				b.Family("quditd_sweep_journal_appends_total", "Sweep journal records fsynced.", metrics.Counter).Add(4)
				b.Family("quditd_sweep_journal_compactions_total", "Sweep journal snapshot rewrites.", metrics.Counter).Add(5)
				b.Family("quditd_sweep_journal_failures_total", "Sweep journal appends and compactions that failed.", metrics.Counter).Add(6)
				b.Family("quditd_sweep_journal_replayed", "Sweeps resumed from the journal at startup.", metrics.Gauge).Add(8)
			},
		},
	} {
		got := render(func(b *metrics.Buffer) { s.WriteMetrics(b, tc.f) })
		if want := render(tc.want); got != want {
			t.Errorf("%s families:\n%s\nwant:\n%s", tc.f.Prefix, got, want)
		}
	}
	var none *Status
	if got := render(func(b *metrics.Buffer) { none.WriteMetrics(b, Family{Prefix: "x"}) }); got != "" {
		t.Errorf("nil status rendered %q", got)
	}
	var nj *Journal
	if nj.Status(1, 2) != nil {
		t.Error("a nil journal reported a status")
	}
}
