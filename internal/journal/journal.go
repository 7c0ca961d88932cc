// Package journal is the durable job journal behind pipethermd's crash
// recovery: an append-only write-ahead log of job lifecycle transitions
// (submit, done, failed, quarantined). The engine appends a submit
// record before a job is enqueued and a terminal record when it
// settles; on startup the log is replayed and every submitted key
// without a terminal record is resubmitted, so queued and interrupted
// work survives a SIGKILL. Results themselves are not journaled — they
// are recovered through the content-addressed result cache, which makes
// replay cheap and deterministic.
//
// On-disk format: one file (journal.wal) of length-prefixed,
// CRC-framed records:
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload JSON
//
// A crash can only tear the tail: replay stops at the first short or
// checksum-failing frame, and Open truncates the file back to the last
// good frame so later appends never interleave with garbage. Appends
// are fsynced, so a record that was reported written survives power
// loss.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultinject"
)

// Record ops. A key's lifecycle in the journal is submit → one of
// done/failed/quarantined; a key whose latest records lack a terminal
// op is pending and gets replayed.
const (
	OpSubmit      = "submit"
	OpDone        = "done"
	OpFailed      = "failed"
	OpQuarantined = "quarantined"
	// OpNote is a no-op record: it participates in no key's lifecycle
	// (Pending ignores it) and exists so a recovering writer can probe
	// the disk with a real framed, fsynced append — the journal circuit
	// breaker's half-open probe. Compaction drops notes.
	OpNote = "note"
)

// Record is one journaled transition.
type Record struct {
	Op  string          `json:"op"`
	Key string          `json:"key"`
	Req json.RawMessage `json:"req,omitempty"` // canonical request JSON, submit records only
	Err string          `json:"err,omitempty"` // failure/quarantine reason, terminal records only
}

// castagnoli is the CRC-32C table used to frame records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const frameHeader = 8 // uint32 length + uint32 crc

// Journal is an open write-ahead log. Safe for concurrent use.
type Journal struct {
	// Inject is the chaos seam for append failures; nil in production.
	Inject *faultinject.Injector

	mu   sync.Mutex
	f    *os.File
	path string
}

// Open opens (creating if needed) the journal under dir, replays every
// intact record, truncates any torn tail, and returns the journal ready
// for appends plus the replayed records in append order.
func Open(dir string) (*Journal, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, "journal.wal")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs, good, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Drop a torn tail so the next append starts on a frame boundary.
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f, path: path}, recs, nil
}

// readAll decodes records from the start of f, returning the records
// and the offset of the last fully intact frame. A short or
// CRC-mismatched frame ends the scan: it is the expected artifact of a
// crash mid-append (or of disk corruption), and everything before it is
// still good.
func readAll(f *os.File) ([]Record, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	var (
		recs []Record
		good int64
		hdr  [frameHeader]byte
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return recs, good, nil // clean EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > 1<<20 { // a frame this large is corruption, not a record
			return recs, good, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return recs, good, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, good, nil // bit rot or tear inside the frame
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return recs, good, nil
		}
		recs = append(recs, r)
		good += frameHeader + int64(n)
	}
}

// Append frames, writes, and fsyncs one record. An error leaves the
// journal usable (the next Open truncates any torn frame).
func (j *Journal) Append(r Record) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	torn, ferr := j.Inject.FireWrite(faultinject.SiteJournalAppend, frame)
	if ferr != nil && len(torn) == len(frame) {
		// Pure injected failure (ENOSPC with no tear): nothing reached
		// the disk, exactly as a failed write(2) would leave it.
		return fmt.Errorf("journal: %w", ferr)
	}
	if _, err := j.f.Write(torn); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if ferr != nil {
		return fmt.Errorf("journal: %w", ferr)
	}
	if len(torn) != len(frame) {
		return fmt.Errorf("journal: torn append")
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Close syncs and closes the journal. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Rewrite atomically replaces the journal's contents with recs —
// compaction: after replay (and after a degraded-mode recovery) the
// engine rewrites only the still-live records (pending submits and
// quarantine markers), so the log stays bounded by the live job set
// instead of growing forever.
//
// Failure contract: any error before the final rename leaves the old
// WAL byte-for-byte intact and the journal still appendable to it —
// a full disk during compaction costs the compaction, never the log.
func (j *Journal) Rewrite(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".journal.wal.tmp*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer os.Remove(tmp.Name())
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("journal: %w", err)
		}
		var hdr [frameHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
		if _, err := tmp.Write(hdr[:]); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: %w", err)
		}
		if _, err := tmp.Write(payload); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: %w", err)
		}
	}
	if ferr := j.Inject.Fire(faultinject.SiteJournalRewrite); ferr != nil {
		tmp.Close()
		return fmt.Errorf("journal: %w", ferr)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	// Reopen so appends land in the compacted file, not the replaced
	// one. If the reopen fails the old handle points at the unlinked
	// pre-compaction inode — appending there would silently lose
	// records, so fail closed: mark the journal closed and report.
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		j.f.Close()
		j.f = nil
		return fmt.Errorf("journal: reopening after compaction: %w", err)
	}
	j.f.Close()
	j.f = f
	return nil
}

// Pending reduces replayed records to the still-live set: submitted
// keys without a terminal record (in first-submit order) and the keys
// quarantined by a previous process. A quarantined key is never
// pending — its poison marker outlives restarts.
func Pending(recs []Record) (pending []Record, quarantined []Record) {
	state := make(map[string]string, len(recs))
	submit := make(map[string]Record, len(recs))
	quar := make(map[string]bool)
	var order []string
	for _, r := range recs {
		if _, seen := state[r.Key]; !seen {
			order = append(order, r.Key)
		}
		state[r.Key] = r.Op
		if r.Op == OpSubmit {
			if _, ok := submit[r.Key]; !ok {
				submit[r.Key] = r
			}
		}
		if r.Op == OpQuarantined && !quar[r.Key] {
			quar[r.Key] = true
			quarantined = append(quarantined, r)
		}
	}
	for _, k := range order {
		if state[k] == OpSubmit {
			if r, ok := submit[k]; ok {
				pending = append(pending, r)
			}
		}
	}
	return pending, quarantined
}
