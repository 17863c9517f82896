package journal

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"quditkit/internal/metrics"
)

// Header opens every consumer snapshot: the consumer's schema version
// and its ID counter at compaction time.
type Header struct {
	Version int    `json:"version"`
	NextID  uint64 `json:"next_id"`
}

// DecodeSnapshot unmarshals a consumer snapshot into v, a struct that
// embeds Header, and returns the header once its version is the one
// this build writes; no snapshot (nil data) leaves v as it is. Bytes
// that do not decode and any other version fail loudly: replaying part
// of a snapshot is the silent loss a journal exists to prevent.
func DecodeSnapshot(data []byte, version int, v any) (Header, error) {
	var h Header
	if data == nil {
		return h, nil
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return h, fmt.Errorf("corrupt journal snapshot: %w", err)
	}
	if h.Version != version {
		return h, fmt.Errorf("journal snapshot is version %d, this build speaks %d", h.Version, version)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return h, fmt.Errorf("corrupt journal snapshot: %w", err)
	}
	return h, nil
}

// Counter resumes a consumer's ID counter on replay. IDs are a fixed
// prefix and a decimal number ("j-000001", "s-000001", "c-000001");
// Max is the largest number seen, so a restarted consumer that resumes
// from it never reissues an ID its journal names.
type Counter struct {
	Prefix string
	Max    uint64
}

// Note raises Max to the number in id. An ID that is not the prefix
// followed by a number is ignored.
func (c *Counter) Note(id string) {
	digits, ok := strings.CutPrefix(id, c.Prefix)
	if n, err := strconv.ParseUint(digits, 10, 64); ok && err == nil && n > c.Max {
		c.Max = n
	}
}

// AppendJSON appends v, marshaled to JSON, as one record of kind.
func (j *Journal) AppendJSON(kind uint8, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return j.Append(kind, data)
}

// CompactJSON compacts the journal into v, marshaled to JSON.
func (j *Journal) CompactJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return j.Compact(data)
}

// CompactDue reports whether the WAL tail has reached every records,
// the point at which a consumer folds its state into a snapshot.
// every <= 0 never triggers.
func (j *Journal) CompactDue(every int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return every > 0 && j.tail >= every
}

// Status is a consumer's journal block in GET /v1/stats: the raw
// gauges, the journaled jobs or sweeps not yet settled (Lag: what a
// crash now would replay) and those restored at startup (Replayed).
type Status struct {
	Stats
	Lag      int   `json:"lag"`
	Replayed int64 `json:"replayed"`
}

// Status returns the journal's gauges with a consumer's lag and replay
// count, or nil on a nil journal (a consumer running without one).
func (j *Journal) Status(lag int, replayed int64) *Status {
	if j == nil {
		return nil
	}
	return &Status{Stats: j.Stats(), Lag: lag, Replayed: replayed}
}

// Family names one consumer's journal families on /metrics: every
// name starts with Prefix ("quditd_journal"), Subject ("Sweep" or
// empty) qualifies the journal-level help text, and Lag and Replayed
// are the help text of the consumer's two gauges.
type Family struct {
	Prefix, Subject, Lag, Replayed string
}

// WriteMetrics renders s as f's seven families; a nil s renders
// nothing.
func (s *Status) WriteMetrics(b *metrics.Buffer, f Family) {
	if s == nil {
		return
	}
	help := func(text string) string {
		if f.Subject == "" {
			return strings.ToUpper(text[:1]) + text[1:]
		}
		return f.Subject + " " + text
	}
	b.Family(f.Prefix+"_wal_bytes", help("write-ahead log size."), metrics.Gauge).Add(float64(s.WALBytes))
	b.Family(f.Prefix+"_tail_records", help("WAL records not yet folded into a snapshot."), metrics.Gauge).Add(float64(s.TailRecords))
	b.Family(f.Prefix+"_lag", f.Lag, metrics.Gauge).Add(float64(s.Lag))
	b.Family(f.Prefix+"_appends_total", help("journal records fsynced."), metrics.Counter).Add(float64(s.Appends))
	b.Family(f.Prefix+"_compactions_total", help("journal snapshot rewrites."), metrics.Counter).Add(float64(s.Compactions))
	b.Family(f.Prefix+"_failures_total", help("journal appends and compactions that failed."), metrics.Counter).Add(float64(s.Failures))
	b.Family(f.Prefix+"_replayed", f.Replayed, metrics.Gauge).Add(float64(s.Replayed))
}
