// Durability: journal recovery at startup, WAL appends behind the
// journal breaker, and the maintenance probe and re-journal that
// restore journaled durability when the disk recovers.
package service

import (
	"encoding/json"
	"errors"
	"sort"
	"time"

	"repro/internal/journal"
)

// recoverJournal restores journaled state: quarantine markers become
// quarantined jobs, the log is compacted to the live set, and pending
// submits are resubmitted in the background (readiness is withheld
// until they are all enqueued; their results then arrive through the
// normal worker/cache path).
func (e *Engine) recoverJournal(recs []journal.Record) {
	if e.cfg.Journal == nil {
		return
	}
	pending, quarantined := journal.Pending(recs)
	for _, rec := range quarantined {
		var req Request
		json.Unmarshal(rec.Req, &req) // best-effort: old markers may lack the request
		j := &Job{Key: rec.Key, Req: req, state: JobQuarantined,
			err: errors.New(rec.Err), panics: e.cfg.QuarantineAfter, done: closedDone}
		e.mu.Lock()
		e.jobs[rec.Key] = j
		e.panicCounts[rec.Key] = e.cfg.QuarantineAfter
		e.mu.Unlock()
	}
	compact := append(append([]journal.Record{}, quarantined...), pending...)
	if err := e.cfg.Journal.Rewrite(compact); err != nil {
		// Startup compaction failing (disk full) degrades durability, it
		// never blocks startup: the breaker sees the failure and the
		// maintenance loop retries once the disk recovers.
		e.journalErrs.Add(1)
		e.jbrk.Record(0, err)
	}
	if len(pending) > 0 {
		e.replayed.Store(false)
		go e.replayPending(pending)
	}
}

// replayPending resubmits journaled pending jobs. A full queue blocks
// on the capacity-freed signal rather than polling, so recovered work
// admits the moment a slot opens and /readyz flips as soon as the last
// replay lands.
func (e *Engine) replayPending(pending []journal.Record) {
	defer e.replayed.Store(true)
	for _, rec := range pending {
		var req Request
		if err := json.Unmarshal(rec.Req, &req); err != nil {
			continue // unreadable request: nothing to replay
		}
		for {
			j, err := e.Submit(req)
			if err == nil {
				// Replay-from-cache: the run completed before the crash
				// but its done record was lost; settle the journal now.
				st := e.snapshot(j)
				if st.State == JobDone && st.Cached {
					e.journalAppend(journal.Record{Op: journal.OpDone, Key: j.Key})
				}
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				break // invalid under current config, or engine shut down
			}
			select {
			case <-e.spaceCh:
			case <-e.baseCtx.Done():
				return
			}
		}
	}
}

// journalAppend WAL-logs one transition. Journal failures degrade
// durability, not availability: they are counted, never fatal. The
// journal breaker turns a run of failures into durability=none mode —
// appends are skipped (counted in journal_skipped) instead of paying a
// failing, possibly slow syscall per transition — and the breaker
// closing again triggers a re-journal of all outstanding state.
// Returns whether the record actually reached the WAL.
func (e *Engine) journalAppend(r journal.Record) bool {
	if e.cfg.Journal == nil {
		return false
	}
	if !e.jbrk.Allow() {
		e.journalSkipped.Add(1)
		return false
	}
	start := e.now()
	err := e.cfg.Journal.Append(r)
	if err != nil {
		e.journalErrs.Add(1)
	}
	if e.jbrk.Record(e.now().Sub(start), err) {
		go e.rejournal()
	}
	return err == nil
}

// maintain is the engine's background recovery loop: while the journal
// breaker is open it periodically probes the disk with a no-op note
// append, and on success re-journals outstanding state — so a daemon
// whose disk comes back recovers journaled durability on its own, with
// no traffic required.
func (e *Engine) maintain() {
	defer e.wg.Done()
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-e.stopCh:
			return
		case <-t.C:
			if e.jbrk.State() == BreakerClosed || !e.jbrk.Allow() {
				continue
			}
			start := e.now()
			err := e.cfg.Journal.Append(journal.Record{Op: journal.OpNote, Key: "breaker-probe"})
			if err != nil {
				e.journalErrs.Add(1)
			}
			if e.jbrk.Record(e.now().Sub(start), err) {
				e.rejournal()
			}
		}
	}
}

// rejournal compacts the WAL back to the live job set — the recovery
// step after a stretch of durability=none, when the on-disk log is
// missing every transition that happened while the breaker was open.
// It rewrites pending submits and quarantine markers from the in-memory
// truth; settled jobs simply vanish from the log, exactly as compaction
// would have left them. Holding the engine lock across the rewrite
// keeps concurrent submit appends from landing in the pre-compaction
// file and being lost by the rename.
func (e *Engine) rejournal() {
	if e.cfg.Journal == nil || !e.rejournalMu.TryLock() {
		return
	}
	defer e.rejournalMu.Unlock()
	e.mu.Lock()
	var recs []journal.Record
	for key, j := range e.jobs {
		switch j.state {
		case JobQueued, JobRunning:
			rec := journal.Record{Op: journal.OpSubmit, Key: key}
			if c, err := j.Req.Canonical(); err == nil {
				rec.Req = c
			}
			recs = append(recs, rec)
		case JobQuarantined:
			rec := journal.Record{Op: journal.OpQuarantined, Key: key}
			if j.err != nil {
				rec.Err = j.err.Error()
			}
			if c, err := j.Req.Canonical(); err == nil {
				rec.Req = c
			}
			recs = append(recs, rec)
		}
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].Key < recs[k].Key })
	start := e.now()
	err := e.cfg.Journal.Rewrite(recs)
	e.mu.Unlock()
	if err != nil {
		e.journalErrs.Add(1)
	}
	e.jbrk.Record(e.now().Sub(start), err)
}

// durability names the journal contract currently in force: "off" (no
// journal configured), "journaled" (every transition WAL-logged), or
// "none" (journal breaker open: work is accepted and computed but
// transitions are not persisted; results settle NonJournaled and the
// engine re-journals outstanding state when the disk recovers).
func (e *Engine) durability() string {
	switch {
	case e.cfg.Journal == nil:
		return "off"
	case e.jbrk.State() != BreakerClosed:
		return "none"
	default:
		return "journaled"
	}
}
