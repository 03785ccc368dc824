// Package campaign is the job engine behind cmd/c3dd. One engine serves
// both roles of the daemon; they differ only in the executor that runs a
// job's spec:
//
//   - A worker node (Config.Workers empty) runs every job in-process through
//     pkg/c3d and serves the /v1/jobs API: it accepts simulation,
//     experiment-campaign and verification jobs, schedules them on a bounded
//     set of run slots, streams structured progress as JSON lines, and serves result
//     bytes identical to `c3dexp -json` output for the same parameters.
//   - A coordinator (Config.Workers set) serves the /v1/campaigns API: it
//     shards an ordered list of job specs across a fleet of worker daemons
//     over the public job API (pkg/c3d/api), routes each job through a
//     pluggable policy, retries jobs whose worker died mid-flight, and
//     assembles the per-job result documents in submission order.
//
// Everything above the executor exists once: the job lifecycle, the
// bounded-retention table, FIFO admission under MaxConcurrent, Close and
// Drain, and the HTTP helpers, /healthz and /v1/capabilities.
//
// Two properties make distribution invisible in the output. First, every job
// is deterministic — the same spec produces the same result bytes on any
// worker at any parallelism — so routing is purely a performance decision
// and a retried or duplicated job is harmless. Second, assembly is by
// submission index, never completion order, so campaign output is
// byte-identical to a local run of the same specs. The fleet tests pin both:
// results are cmp-equal across routing policies and worker counts 1, 2
// and 4.
//
// The same determinism funds the content-addressed result cache: results are
// keyed by a hash of the canonical spec (CacheKey), so a repeated campaign —
// or any campaign sharing jobs with an earlier one — is answered without
// dispatching anything. Admission is token-bucket limited at the door: a
// campaign takes one token per job or is rejected whole with 429.
package campaign

import (
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

// Config parameterises a Coordinator. Workers selects the mode; the
// remaining fields apply to the mode their comment names.
type Config struct {
	// Workers lists the base URLs of the worker daemons. Empty makes a
	// worker node that runs jobs in-process; set, a coordinator over them.
	Workers []string
	// MaxConcurrent bounds jobs running at once: run in-process on a worker
	// node (default 1: simulations are internally parallel already, so one
	// job usually saturates the host; raise it to overlap small jobs), or
	// dispatched to the fleet across all campaigns (default 2x worker count).
	MaxConcurrent int
	// QueueDepth bounds jobs waiting to run on a worker node (default 256).
	// Submissions beyond it are rejected with 503 instead of queueing
	// unboundedly.
	QueueDepth int
	// MaxJobs bounds retained finished jobs on a worker node (default 1024):
	// the oldest finished jobs are evicted first, so a long-lived daemon's
	// job table does not grow without bound.
	MaxJobs int
	// Policy names the coordinator's routing policy (default DefaultPolicy).
	Policy string
	// RatePerSec and Burst shape the admission token bucket: a campaign
	// submission takes one token per job (defaults 50/s, burst 200).
	RatePerSec float64
	Burst      int
	// CacheEntries bounds the content-addressed result cache (default 1024).
	CacheEntries int
	// MaxAttempts bounds dispatch attempts per job before the job — and its
	// campaign — fails (default 3). Only transient failures (worker
	// unreachable, job cancelled underneath us) consume retries; a job the
	// worker reports as failed is deterministic and fails immediately.
	MaxAttempts int
	// MaxCampaigns bounds retained finished campaigns (default 256).
	MaxCampaigns int
	// Cooldown is how long a worker sits out after a transient failure
	// before it is routable again (default 2s).
	Cooldown time.Duration
	// DispatchTimeout bounds one dispatch (submit + run + fetch result) of
	// one job on one worker. A dispatch that exceeds it counts as a transient
	// failure: the worker is benched for the cooldown and the job reassigned.
	// Zero disables the deadline.
	DispatchTimeout time.Duration
	// HedgeAfter speculatively re-dispatches a job to a second worker when
	// the first has not answered within this duration, first result winning
	// and the loser cancelled. Zero disables hedging. Safe because results
	// are deterministic and content-addressed: a duplicated job can waste a
	// dispatch, never change an answer.
	HedgeAfter time.Duration
	// ProbeTimeout bounds each /healthz load probe (default 2s).
	ProbeTimeout time.Duration
	// CancelGrace bounds the best-effort worker-side job cancel issued when
	// a campaign is cancelled mid-dispatch (default 2s).
	CancelGrace time.Duration
	// JournalDir enables the durable campaign journal: an append-only JSONL
	// WAL plus a disk-backed result cache under this directory. On
	// construction the coordinator replays the journal, restores finished
	// campaigns and resumes interrupted ones (see journal.go). Empty keeps
	// everything in memory.
	JournalDir string
	// ClientOptions is applied to every per-worker api.Client.
	ClientOptions []api.ClientOption
	// Logf receives engine decisions (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	orDefault(&c.MaxConcurrent, max(1, 2*len(c.Workers)))
	orDefault(&c.QueueDepth, 256)
	orDefault(&c.MaxJobs, 1024)
	orDefault(&c.RatePerSec, 50)
	orDefault(&c.Burst, 200)
	orDefault(&c.CacheEntries, 1024)
	orDefault(&c.MaxAttempts, 3)
	orDefault(&c.MaxCampaigns, 256)
	orDefault(&c.Cooldown, 2*time.Second)
	orDefault(&c.ProbeTimeout, 2*time.Second)
	orDefault(&c.CancelGrace, 2*time.Second)
	if c.Policy == "" {
		c.Policy = DefaultPolicy
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// orDefault replaces a non-positive setting with its default.
func orDefault[T int | float64 | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Coordinator is the job engine: a worker node or a campaign coordinator,
// by Config.Workers. Construct with New, serve its Handler, or drive a
// coordinator directly through Submit/Status/Results.
type Coordinator struct {
	cfg     Config
	exec    executor
	fleet   *fleet           // nil on a worker node
	caps    api.Capabilities // served by /v1/capabilities: c3d's own, or the fleet's shared one
	bucket  *tokenBucket
	cache   *resultCache
	journal *journal // nil without JournalDir

	// stopCtx is the parent of every job and campaign context: cancelling
	// it (Close) cancels all running work at once. wg counts the run slots,
	// campaign runners and dispatch goroutines; a queued job always has a
	// run slot, so wg reaching zero means every admitted job and campaign
	// has settled, which is what Close and Drain wait for.
	stopCtx   context.Context
	stop      context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once

	mu        sync.Mutex
	pending   []*job // FIFO of jobs waiting for a run slot
	slots     int    // run slots open, at most MaxConcurrent
	jobs      table[*job]
	campaigns table[*campaign]
	closed    bool
}

// New builds the engine. With Workers set it performs the fleet's
// capabilities handshake (see newFleet) and, with JournalDir, replays the
// journal.
func New(ctx context.Context, cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.DispatchTimeout < 0 || cfg.HedgeAfter < 0 {
		return nil, fmt.Errorf("campaign: DispatchTimeout and HedgeAfter must be non-negative")
	}
	diskCache := ""
	if cfg.JournalDir != "" {
		diskCache = cacheDir(cfg.JournalDir)
	}
	stopCtx, stop := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:       cfg,
		exec:      local{},
		caps:      c3d.CurrentCapabilities(),
		bucket:    newTokenBucket(cfg.RatePerSec, cfg.Burst),
		cache:     newResultCache(cfg.CacheEntries, diskCache, cfg.Logf),
		stopCtx:   stopCtx,
		stop:      stop,
		jobs:      table[*job]{prefix: "job", max: cfg.MaxJobs},
		campaigns: table[*campaign]{prefix: "campaign", max: cfg.MaxCampaigns},
	}
	if len(cfg.Workers) > 0 {
		f, err := newFleet(ctx, cfg, &c.wg)
		if err != nil {
			stop()
			return nil, err
		}
		c.exec, c.fleet, c.caps = f, f, f.caps
		cfg.Logf("campaign: coordinator up: %d workers, policy %s", len(f.workers), f.spec.Name)
	}
	if cfg.JournalDir != "" {
		jl, recs, err := openJournal(cfg.JournalDir, cfg.Logf)
		if err != nil {
			stop()
			return nil, err
		}
		c.journal = jl
		c.replay(recs)
	}
	return c, nil
}

// replay rebuilds journaled campaigns after a restart. A campaign with a
// journaled terminal state is restored as a record: done campaigns reload
// their result bytes from the disk cache (and are re-run instead if any
// result went missing), failed and cancelled ones keep their terminal state.
// A campaign without one — interrupted by a crash or stop — is re-run
// through the normal runner with every job queued: jobs whose results are
// already in the disk cache resolve as cache hits without touching the
// fleet, only the remainder is dispatched. Assembly by submission index then
// makes the resumed output byte-identical to an uninterrupted run.
func (c *Coordinator) replay(recs []journalRecord) {
	states, maxSeq := replayJournal(recs)
	c.campaigns.nextID = maxSeq
	resumed := 0
	for _, st := range states {
		cp, err := c.newCampaign(st.spec.Jobs)
		if err != nil {
			c.cfg.Logf("campaign: replay: dropping %s: %v", st.id, err)
			continue
		}
		cp.id = st.id
		c.mu.Lock()
		c.campaigns.add(cp.id, cp)
		c.mu.Unlock()
		if !api.Terminal(st.state) || !c.restoreTerminal(cp, st) {
			c.wg.Add(1)
			c.start(cp)
			resumed++
		}
	}
	if len(states) > 0 {
		c.cfg.Logf("campaign: journal replayed: %d campaigns restored, %d resumed", len(states)-resumed, resumed)
	}
}

// restoreTerminal settles a replayed campaign that had already reached a
// terminal state: jobs whose results are still in the cache come back as
// done cache hits, the rest inherit the campaign's fate. A done campaign
// missing a result (cache wiped between runs) is left for a re-run and
// reports false — the journal records intent, the cache holds the bytes.
func (c *Coordinator) restoreTerminal(cp *campaign, st *replayState) bool {
	if st.state == api.StateDone {
		for _, j := range cp.jobs {
			if !c.cache.has(j.key) {
				c.cfg.Logf("campaign: replay: %s is journaled done but result %s is gone; re-running", cp.id, j.key)
				return false
			}
		}
	}
	for _, j := range cp.jobs {
		if data, ok := c.cache.get(j.key); ok {
			j.hit(data)
		} else {
			j.requestCancel(errors.New("not completed before shutdown"))
		}
	}
	cp.settle(st.state, st.errMsg)
	cp.cancel()
	return true
}

// Close hard-stops the engine: admission stops, every queued and running
// job and campaign is cancelled (in-flight worker jobs get a best-effort
// cancel), and Close blocks until the run slots and all campaign runners
// have settled. Stop-interrupted campaigns are deliberately not journaled
// terminal, so a journal-configured restart resumes them where they left
// off. Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.stop()
		c.wg.Wait()
		c.journal.close()
		c.cfg.Logf("campaign: stopped")
	})
}

// Drain gracefully stops the engine: admission stops immediately (new
// submissions answer 503 shutting_down), jobs and campaigns already
// admitted — running or still queued — run to completion, and Drain returns
// once they settle, or once ctx expires, in which case it falls back to
// Close's hard cancel and returns ctx's error. Either way the engine is
// fully stopped on return.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		c.cfg.Logf("campaign: drain deadline expired; cancelling remaining work")
	}
	c.Close()
	return err
}

// campaign is one submitted CampaignSpec working its way through the
// executor.
type campaign struct {
	id      string
	created time.Time
	ctx     context.Context
	cancel  context.CancelFunc
	jobs    []*job

	mu  sync.Mutex
	st  string
	err string
}

func (cp *campaign) state() string {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.st
}

func (cp *campaign) settle(state, errMsg string) {
	cp.mu.Lock()
	cp.st, cp.err = state, errMsg
	cp.mu.Unlock()
}

// newCampaign builds an unregistered campaign whose jobs hang off its
// context, keyed by content address.
func (c *Coordinator) newCampaign(specs []api.JobSpec) (*campaign, error) {
	if len(specs) == 0 {
		return nil, errors.New("campaign has no jobs")
	}
	ctx, cancel := context.WithCancel(c.stopCtx)
	cp := &campaign{created: time.Now(), ctx: ctx, cancel: cancel, st: api.StateRunning}
	for i, js := range specs {
		key, err := CacheKey(js)
		if err != nil {
			cancel()
			return nil, err
		}
		j := newJob("", js, ctx)
		j.cp, j.index, j.key = cp, i, key
		cp.jobs = append(cp.jobs, j)
	}
	return cp, nil
}

// Submit admits a campaign: validates every spec against the engine's
// capabilities, charges the token bucket one token per job (atomically —
// admit all or reject all), and starts the runner. Errors are *api.Error so
// the HTTP layer maps them directly.
func (c *Coordinator) Submit(spec api.CampaignSpec) (*api.SubmitResponse, error) {
	for i, js := range spec.Jobs {
		if err := c.caps.SupportsSpec(js); err != nil {
			return nil, apiError(http.StatusBadRequest, api.CodeInvalidSpec, "job %d: %v", i, err)
		}
	}
	if !c.bucket.take(len(spec.Jobs)) {
		return nil, apiError(http.StatusTooManyRequests, api.CodeRateLimited,
			"admission rate exceeded (%d jobs; %g/s, burst %d)", len(spec.Jobs), c.cfg.RatePerSec, c.cfg.Burst)
	}
	cp, err := c.newCampaign(spec.Jobs)
	if err != nil {
		return nil, apiError(http.StatusBadRequest, api.CodeInvalidSpec, "%v", err)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cp.cancel()
		return nil, apiError(http.StatusServiceUnavailable, api.CodeShuttingDown, "coordinator is shutting down")
	}
	cp.id = c.campaigns.newID()
	c.campaigns.add(cp.id, cp)
	c.wg.Add(1)
	c.mu.Unlock()

	// Journal admission before any job is queued, so job records can never
	// precede their campaign record in the WAL.
	c.journal.append(journalRecord{Type: recCampaign, ID: cp.id, Spec: &spec})
	c.cfg.Logf("campaign: %s admitted: %d jobs", cp.id, len(cp.jobs))
	c.start(cp)
	return &api.SubmitResponse{ID: cp.id, State: api.StateRunning}, nil
}

// start resolves a campaign's cached jobs, queues the rest and starts its
// runner. The caller has counted the runner in c.wg.
func (c *Coordinator) start(cp *campaign) {
	var misses []*job
	for _, j := range cp.jobs {
		j.id = fmt.Sprintf("%s job %d", cp.id, j.index)
		if data, ok := c.cache.get(j.key); ok {
			j.hit(data)
			c.journal.append(journalRecord{Type: recJob, ID: cp.id, Index: j.index, Key: j.key, State: api.StateDone})
		} else {
			misses = append(misses, j)
		}
	}
	c.mu.Lock()
	for _, j := range misses {
		c.enqueueLocked(j)
	}
	c.mu.Unlock()
	go c.run(cp)
}

// run waits for every job of a campaign and settles the campaign state.
// Cancelling the campaign settles its still-queued jobs at once, so they do
// not hold the runner until a run slot frees.
func (c *Coordinator) run(cp *campaign) {
	defer c.wg.Done()
	stop := context.AfterFunc(cp.ctx, func() {
		for _, j := range cp.jobs {
			j.requestCancel(errCampaignCancelled)
		}
	})
	for _, j := range cp.jobs {
		<-j.done
	}
	stop()

	state, errMsg := api.StateDone, ""
	for i, j := range cp.jobs {
		js := j.campaignDoc()
		switch js.State {
		case api.StateFailed:
			state = api.StateFailed
			if errMsg == "" {
				errMsg = fmt.Sprintf("job %d failed: %s", i, js.Error)
			}
		case api.StateCancelled:
			if state == api.StateDone {
				state, errMsg = api.StateCancelled, "campaign cancelled"
			}
		}
	}
	cp.settle(state, errMsg)
	cp.cancel()
	// A cancellation caused by engine shutdown is not a verdict on the
	// campaign — leave it non-terminal in the journal so a restart resumes
	// it. Every other settlement (done, failed, user cancel) is journaled.
	if c.stopCtx.Err() == nil || state != api.StateCancelled {
		c.journal.append(journalRecord{Type: recCampaignState, ID: cp.id, State: state, Error: errMsg})
	}
	c.cfg.Logf("campaign: %s %s (cache hits %d/%d)", cp.id, state, cp.snapshot().CacheHits, len(cp.jobs))
}

func (cp *campaign) snapshot() api.CampaignStatus {
	cp.mu.Lock()
	state, errMsg := cp.st, cp.err
	cp.mu.Unlock()
	st := api.CampaignStatus{
		ID:    cp.id,
		State: state,
		Error: errMsg,
		Total: len(cp.jobs),
		Jobs:  make([]api.CampaignJob, 0, len(cp.jobs)),
	}
	for _, j := range cp.jobs {
		doc := j.campaignDoc()
		st.Jobs = append(st.Jobs, doc)
		if doc.State == api.StateDone {
			st.Done++
		}
		if doc.CacheHit {
			st.CacheHits++
		}
	}
	return st
}

// Status returns one campaign's status document.
func (c *Coordinator) Status(id string) (*api.CampaignStatus, error) {
	cp, err := find(c, &c.campaigns, "campaign", id)
	if err != nil {
		return nil, err
	}
	st := cp.snapshot()
	return &st, nil
}

// List returns one page of campaign statuses in submission order.
func (c *Coordinator) List(offset, limit int) *api.CampaignPage {
	c.mu.Lock()
	defer c.mu.Unlock()
	cps, total, offset := pageOf(&c.campaigns, offset, limit, (*campaign).snapshot)
	return &api.CampaignPage{Campaigns: cps, Total: total, Offset: offset}
}

// Results returns a finished campaign's per-job result documents in
// submission order. Unfinished campaigns answer conflict; failed or
// cancelled ones answer job_failed with the first error.
func (c *Coordinator) Results(id string) (*api.CampaignResults, error) {
	cp, err := find(c, &c.campaigns, "campaign", id)
	if err != nil {
		return nil, err
	}
	st := cp.snapshot()
	switch {
	case st.State == api.StateDone:
		res := &api.CampaignResults{ID: cp.id, Results: make([]json.RawMessage, len(cp.jobs))}
		for i, j := range cp.jobs {
			_, result, _ := j.outcome()
			res.Results[i] = json.RawMessage(result)
		}
		return res, nil
	case api.Terminal(st.State):
		return nil, apiError(http.StatusUnprocessableEntity, api.CodeJobFailed, "campaign %s %s: %s", cp.id, st.State, st.Error)
	default:
		return nil, apiError(http.StatusConflict, api.CodeConflict, "campaign %s is %s; poll the status endpoint", cp.id, st.State)
	}
}

// Cancel stops a campaign: unstarted jobs stay unrun, in-flight worker jobs
// are cancelled, and the campaign settles as cancelled (or whatever terminal
// state it had already reached).
func (c *Coordinator) Cancel(id string) (*api.CampaignStatus, error) {
	if cp, err := find(c, &c.campaigns, "campaign", id); err == nil {
		cp.cancel()
	}
	return c.Status(id)
}

// Health reports the engine's liveness document. The scheduler counters
// count the table the mode serves — jobs on a worker node, campaigns on a
// coordinator — and a coordinator adds its fleet and cache views.
func (c *Coordinator) Health() api.Health {
	c.mu.Lock()
	status := "ok"
	if c.closed {
		// Draining: admitted work is finishing, new submissions answer 503.
		status = "draining"
	}
	queued, running, finished := c.jobs.counts()
	if c.fleet != nil {
		queued, running, finished = c.campaigns.counts()
	}
	c.mu.Unlock()
	h := api.Health{
		Status:   status,
		Version:  c.caps.Version,
		Queued:   queued,
		Running:  running,
		Finished: finished,
	}
	if c.fleet != nil {
		now := time.Now()
		for _, w := range c.fleet.workers {
			h.Workers = append(h.Workers, w.view(now))
		}
		stats := c.cache.stats()
		h.Cache = &stats
	}
	return h
}
