package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"c3d/pkg/c3d/api"
)

// The durable campaign journal: an append-only JSONL write-ahead log that
// lets a coordinator restart survive without losing (or re-running) work.
//
// Three record types matter:
//
//	{"type":"campaign","id":"campaign-000001","spec":{...}}   admission
//	{"type":"job","id":"campaign-000001","index":2,
//	 "key":"<sha256>","state":"done"}                         job completion
//	{"type":"campaign_state","id":"...","state":"done"}       settlement
//
// plus a {"type":"stop"} marker written on graceful shutdown. Result bytes
// never live in the journal — they flow through the content-addressed result
// cache, which becomes disk-backed under <dir>/cache when a journal is
// configured. The journal is therefore tiny (specs and hashes), and replay
// is: rebuild each campaign from its spec, then let the normal runner
// resolve every job — jobs whose content address is already in the cache hit
// it and are never re-dispatched, jobs without a cached result are
// re-enqueued and run. Because every job is deterministic and assembly is by
// submission index, the resumed campaign's assembled bytes are identical to
// an uninterrupted run's.
//
// Every record is fsynced as it is appended, so a kill -9 loses at most a
// torn final line, which replay ignores. Duplicate job records (a replayed
// job re-journals its cache hit) are harmless: replay keeps the union.

// journalRecord is one JSONL line. Type discriminates; unused fields stay
// empty and are omitted.
type journalRecord struct {
	Type  string            `json:"type"`
	ID    string            `json:"id,omitempty"`
	Spec  *api.CampaignSpec `json:"spec,omitempty"`
	Index int               `json:"index,omitempty"`
	Key   string            `json:"key,omitempty"`
	State string            `json:"state,omitempty"`
	Error string            `json:"error,omitempty"`
}

// Journal record types.
const (
	recCampaign      = "campaign"
	recJob           = "job"
	recCampaignState = "campaign_state"
	recStop          = "stop"
)

// journal is the open WAL file plus its append lock.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	logf   func(format string, args ...any)
	closed bool
}

// journalPath returns the WAL file under a journal directory; cacheDir the
// sibling directory holding the disk-backed result cache.
func journalPath(dir string) string { return filepath.Join(dir, "journal.jsonl") }
func cacheDir(dir string) string    { return filepath.Join(dir, "cache") }

// openJournal creates the journal directory layout, replays any existing WAL
// into records, and opens the file for appending.
func openJournal(dir string, logf func(string, ...any)) (*journal, []journalRecord, error) {
	if err := os.MkdirAll(cacheDir(dir), 0o777); err != nil {
		return nil, nil, fmt.Errorf("campaign: creating journal dir: %w", err)
	}
	recs, err := readJournal(journalPath(dir))
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(journalPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: opening journal: %w", err)
	}
	return &journal{f: f, logf: logf}, recs, nil
}

// readJournal parses a WAL file. A torn or corrupt line — the tail a crash
// can leave — ends the replay at that point rather than failing it: every
// record before the tear is intact (each append is one write+fsync).
func readJournal(path string) ([]journalRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: reading journal: %w", err)
	}
	defer f.Close()
	var recs []journalRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	//c3dlint:allow ctxcheck(startup-time replay of a local journal file; bounded by file size, no network)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail; everything before it is good
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: scanning journal: %w", err)
	}
	return recs, nil
}

// append writes one record and fsyncs it. Journal IO failure is reported,
// not fatal: the coordinator keeps serving (the campaign still completes),
// it just loses crash-durability for that record.
func (j *journal) append(rec journalRecord) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.writeLocked(rec)
}

// writeLocked appends one record unless the journal is closed. Callers hold
// j.mu.
func (j *journal) writeLocked(rec journalRecord) {
	if j.closed {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		j.logf("campaign: journal: encoding %s record: %v", rec.Type, err)
		return
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		j.logf("campaign: journal: appending %s record: %v", rec.Type, err)
		return
	}
	if err := j.f.Sync(); err != nil {
		j.logf("campaign: journal: fsync: %v", err)
	}
}

// close stamps the stop marker and closes the file. Idempotent.
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.writeLocked(journalRecord{Type: recStop})
	if !j.closed {
		j.closed = true
		j.f.Close()
	}
}

// replayState is one campaign reassembled from journal records.
type replayState struct {
	id       string
	spec     api.CampaignSpec
	jobsDone map[int]string // index -> content key, from job records
	state    string         // terminal campaign_state, or "" if none reached
	errMsg   string
}

// replayJournal folds the record list into per-campaign states, in admission
// order, plus the highest campaign sequence number seen (so new IDs continue
// the series instead of colliding with journaled ones).
func replayJournal(recs []journalRecord) (states []*replayState, maxSeq int) {
	byID := make(map[string]*replayState)
	for _, rec := range recs {
		switch rec.Type {
		case recCampaign:
			if rec.Spec == nil || rec.ID == "" {
				continue
			}
			if _, dup := byID[rec.ID]; dup {
				continue
			}
			st := &replayState{id: rec.ID, spec: *rec.Spec, jobsDone: make(map[int]string)}
			byID[rec.ID] = st
			states = append(states, st)
			var seq int
			if _, err := fmt.Sscanf(rec.ID, "campaign-%d", &seq); err == nil && seq > maxSeq {
				maxSeq = seq
			}
		case recJob:
			if st, ok := byID[rec.ID]; ok && rec.State == api.StateDone {
				st.jobsDone[rec.Index] = rec.Key
			}
		case recCampaignState:
			if st, ok := byID[rec.ID]; ok && api.Terminal(rec.State) {
				st.state, st.errMsg = rec.State, rec.Error
			}
		}
	}
	return states, maxSeq
}
