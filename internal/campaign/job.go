package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"c3d/pkg/c3d"
	"c3d/pkg/c3d/api"
)

// executor runs one job's spec to its result document. It is the one seam
// between a worker node (local: in-process through pkg/c3d) and a
// coordinator (fleet: dispatch to worker daemons); admission, the job and
// campaign tables, scheduling, events, cancellation and drain above it are
// shared. ctx is cancelled when the job is.
type executor interface {
	execute(ctx context.Context, j *job) ([]byte, error)
}

// errCampaignCancelled settles the unfinished jobs of a cancelled campaign.
// It matches context.Canceled, so job.finish files it as cancelled.
var errCampaignCancelled error = campaignCancelled{}

type campaignCancelled struct{}

func (campaignCancelled) Error() string        { return "campaign cancelled" }
func (campaignCancelled) Is(target error) bool { return target == context.Canceled }

// job is one scheduled unit of work and its observable history: a plain job
// on a worker node, or one job of a campaign on a coordinator.
type job struct {
	id      string
	spec    api.JobSpec
	created time.Time
	parent  context.Context // cancelling it cancels the job
	cp      *campaign       // owning campaign; nil for a plain job
	index   int             // position in cp.jobs
	key     string          // content address (campaign jobs)

	mu        sync.Mutex
	st        string
	err       string
	result    []byte
	started   time.Time
	finished  time.Time
	events    [][]byte
	notify    chan struct{}
	done      chan struct{} // closed once the job is terminal
	cancel    context.CancelFunc
	cancelled bool // cancel requested (possibly before the job began)
	worker    string
	cacheHit  bool
	attempts  int
	hedges    int
}

func newJob(id string, spec api.JobSpec, parent context.Context) *job {
	return &job{
		id:      id,
		spec:    spec,
		created: time.Now(),
		parent:  parent,
		st:      api.StateQueued,
		notify:  make(chan struct{}),
		done:    make(chan struct{}),
	}
}

func (j *job) state() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

func (j *job) statusDoc() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.JobStatus{
		ID:       j.id,
		Kind:     j.spec.Kind,
		State:    j.st,
		Error:    j.err,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Events:   len(j.events),
	}
}

func (j *job) campaignDoc() api.CampaignJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.CampaignJob{
		Index:    j.index,
		State:    j.st,
		Worker:   j.worker,
		CacheHit: j.cacheHit,
		Attempts: j.attempts,
		Hedges:   j.hedges,
		Error:    j.err,
	}
}

func (j *job) outcome() (state string, result []byte, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st, j.result, j.err
}

// begin transitions queued -> running; it reports false when the job was
// cancelled before starting (requestCancel already moved it to the terminal
// state).
func (j *job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelled {
		return false
	}
	j.st = api.StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.appendEventLocked(statusLine(j.st))
	return true
}

// finish settles the job with its executor's verdict. An error matching
// context.Canceled files it as cancelled; any other error as failed. A
// failed job may still carry a result document (a verification's reports).
func (j *job) finish(result []byte, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case err == nil:
		j.settleLocked(api.StateDone, "", result)
	case errors.Is(err, context.Canceled):
		j.settleLocked(api.StateCancelled, err.Error(), result)
	default:
		j.settleLocked(api.StateFailed, err.Error(), result)
	}
}

// hit settles the job with a result served from the content-addressed cache.
func (j *job) hit(data []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cacheHit = true
	j.settleLocked(api.StateDone, "", data)
}

// settleLocked records the terminal state once and wakes every waiter.
// Callers hold j.mu.
func (j *job) settleLocked(state, errMsg string, result []byte) {
	if api.Terminal(j.st) {
		return
	}
	j.st, j.err, j.result = state, errMsg, result
	j.finished = time.Now()
	j.appendEventLocked(statusLine(j.st))
	close(j.done)
}

// requestCancel flags the job, cancels its context when running, and settles
// a still-queued job as cancelled with cause immediately — clients must not
// have to wait for a worker to dequeue it to see the cancel took effect.
func (j *job) requestCancel(cause error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if api.Terminal(j.st) {
		return
	}
	j.cancelled = true
	if j.cancel != nil {
		j.cancel()
		return
	}
	j.settleLocked(api.StateCancelled, cause.Error(), nil)
}

// statusLine serialises a lifecycle marker in the api.Event wire shape.
func statusLine(state string) []byte {
	line, _ := json.Marshal(api.Event{Kind: api.EventJobState, State: state})
	return append(line, '\n')
}

// recordEvent is the session progress hook: it serialises the event once in
// the api.Event wire shape and wakes every streaming subscriber.
func (j *job) recordEvent(e c3d.Event) {
	we := api.Event{
		Kind:      e.Kind.String(),
		Job:       e.Job,
		Done:      e.Done,
		Total:     e.Total,
		States:    e.States,
		ElapsedMs: float64(e.Elapsed.Microseconds()) / 1000,
	}
	if e.Err != nil {
		we.Err = e.Err.Error()
	}
	line, err := json.Marshal(we)
	if err != nil {
		return
	}
	line = append(line, '\n')
	j.mu.Lock()
	j.appendEventLocked(line)
	j.mu.Unlock()
}

// appendEventLocked stores a serialised line and signals subscribers.
// Callers hold j.mu.
func (j *job) appendEventLocked(line []byte) {
	j.events = append(j.events, line)
	close(j.notify)
	j.notify = make(chan struct{})
}

// eventsSince returns the serialised events from index on, the job's current
// state, and a channel that is closed on the next append — the streaming
// handler's replay-then-follow primitive.
func (j *job) eventsSince(i int) ([][]byte, string, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i > len(j.events) {
		i = len(j.events)
	}
	return j.events[i:], j.st, j.notify
}

// table is the bounded-retention registry behind both lists — plain jobs on
// a worker node, campaigns on a coordinator: sequential IDs, insertion
// order, and eviction of the oldest terminal entries past the bound
// (unfinished entries are never evicted). Callers hold the engine's lock.
type table[E entry] struct {
	prefix string
	max    int
	nextID int
	byID   map[string]E
	order  []string
}

// entry is what a table holds: a job or a campaign.
type entry interface{ state() string }

func (t *table[E]) newID() string {
	t.nextID++
	return fmt.Sprintf("%s-%06d", t.prefix, t.nextID)
}

func (t *table[E]) add(id string, e E) {
	if t.byID == nil {
		t.byID = make(map[string]E)
	}
	t.byID[id] = e
	t.order = append(t.order, id)
	excess := len(t.order) - t.max
	if excess <= 0 {
		return
	}
	kept := t.order[:0]
	for _, id := range t.order {
		if excess > 0 && api.Terminal(t.byID[id].state()) {
			delete(t.byID, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	t.order = kept
}

// find looks id up in t under the engine lock, answering not_found for an
// unknown kind of entry.
func find[E entry](c *Coordinator, t *table[E], kind, id string) (E, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := t.byID[id]
	if !ok {
		return e, apiError(http.StatusNotFound, api.CodeNotFound, "unknown %s %q", kind, id)
	}
	return e, nil
}

// pageOf renders up to limit entries of t from offset on, in insertion
// order, plus the table size and the offset clamped into [0, total].
func pageOf[E entry, D any](t *table[E], offset, limit int, doc func(E) D) (docs []D, total, clamped int) {
	total = len(t.order)
	offset = min(max(offset, 0), total)
	end := min(offset+max(limit, 0), total)
	docs = make([]D, 0, end-offset)
	for _, id := range t.order[offset:end] {
		docs = append(docs, doc(t.byID[id]))
	}
	return docs, total, offset
}

func (t *table[E]) counts() (queued, running, finished int) {
	for _, e := range t.byID {
		switch e.state() {
		case api.StateQueued:
			queued++
		case api.StateRunning:
			running++
		default:
			finished++
		}
	}
	return
}

// enqueueLocked queues a job for a run slot, first-in first-out, and opens
// a slot if fewer than MaxConcurrent are busy. Callers hold c.mu.
func (c *Coordinator) enqueueLocked(j *job) {
	c.pending = append(c.pending, j)
	if c.slots < c.cfg.MaxConcurrent {
		c.slots++
		c.wg.Add(1)
		go c.runSlot()
	}
}

// runSlot runs queued jobs until the queue is empty, then closes its slot.
func (c *Coordinator) runSlot() {
	defer c.wg.Done()
	for j := c.next(); j != nil; j = c.next() {
		c.runJob(j)
	}
}

// next pops the oldest queued job, or closes the calling slot and returns
// nil when there is none.
func (c *Coordinator) next() *job {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) == 0 {
		c.slots--
		return nil
	}
	j := c.pending[0]
	c.pending[0] = nil
	c.pending = c.pending[1:]
	return j
}

// runJob executes one job through the executor seam. A campaign job's
// result is trimmed to its JSON value bytes (a worker result's trailing
// newline is presentation, and json.RawMessage cannot carry it through the
// results envelope), cached and journaled before the job shows done; a
// failed one fails its campaign, which stops paying for the other jobs.
func (c *Coordinator) runJob(j *job) {
	ctx, cancel := context.WithCancel(j.parent)
	defer cancel()
	if !j.begin(cancel) {
		return // cancelled while queued
	}
	data, err := c.exec.execute(ctx, j)
	cp := j.cp
	switch {
	case cp == nil:
	case err == nil:
		data = bytes.TrimSpace(data)
		c.cache.put(j.key, data)
		c.journal.append(journalRecord{Type: recJob, ID: cp.id, Index: j.index, Key: j.key, State: api.StateDone})
	case cp.ctx.Err() != nil:
		err = errCampaignCancelled
	}
	j.finish(data, err)
	if cp != nil && err != nil {
		cp.cancel()
	}
}
