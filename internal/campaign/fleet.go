package campaign

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"c3d/pkg/c3d/api"
)

// worker is the coordinator's handle on one daemon: its client plus health
// and load bookkeeping. healthy-ness is edge-triggered by dispatch outcomes —
// a transient failure starts a cooldown during which the worker is not
// routable; the next dispatch after cooldown re-probes it implicitly.
type worker struct {
	index  int
	url    string
	client *api.Client

	mu       sync.Mutex
	cooldown time.Time // unroutable until this instant
	assigned int64     // jobs ever dispatched here
	inflight int64     // dispatched and not yet finished
	queued   int       // last /healthz scheduler counters
	running  int
}

func (w *worker) healthy(now time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !now.Before(w.cooldown) || w.cooldown.IsZero()
}

func (w *worker) benched(until time.Time) {
	w.mu.Lock()
	w.cooldown = until
	w.mu.Unlock()
}

func (w *worker) view(now time.Time) api.WorkerHealth {
	w.mu.Lock()
	defer w.mu.Unlock()
	return api.WorkerHealth{
		URL:      w.url,
		Healthy:  !now.Before(w.cooldown) || w.cooldown.IsZero(),
		Assigned: w.assigned,
		Inflight: w.inflight,
	}
}

// fleet is the coordinator's executor: it runs each job on a worker daemon
// chosen by the routing policy, retrying and reassigning jobs whose worker
// died, hung or cancelled underneath it.
type fleet struct {
	cfg     Config
	workers []*worker
	spec    PolicySpec
	caps    api.Capabilities
	wg      *sync.WaitGroup // the engine's goroutine group, for dispatches

	policyMu sync.Mutex // serialises Pick (policies keep state)
	policy   Policy
}

// newFleet performs the capabilities handshake: every worker must be
// reachable and the fleet must be homogeneous (identical capability
// documents), because a heterogeneous fleet could route the same spec to
// workers that disagree about it. The fleet's shared capabilities become the
// coordinator's own /v1/capabilities answer.
func newFleet(ctx context.Context, cfg Config, wg *sync.WaitGroup) (*fleet, error) {
	spec, err := LookupPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	f := &fleet{cfg: cfg, spec: spec, policy: spec.New(), wg: wg}
	for i, u := range cfg.Workers {
		w := &worker{index: i, url: u, client: api.NewClient(u, cfg.ClientOptions...)}
		f.workers = append(f.workers, w)
		caps, err := w.client.Capabilities(ctx)
		if err != nil {
			return nil, fmt.Errorf("campaign: worker %s handshake: %w", w.url, err)
		}
		if i == 0 {
			f.caps = *caps
		} else if !reflect.DeepEqual(f.caps, *caps) {
			return nil, fmt.Errorf("campaign: heterogeneous fleet: %s (version %s) and %s (version %s) disagree on capabilities",
				f.workers[0].url, f.caps.Version, w.url, caps.Version)
		}
	}
	return f, nil
}

// execute resolves one job by dispatch with retry-and-reassignment.
// Worker-reported failure is deterministic and final; a worker that
// vanished, hung past the dispatch deadline or cancelled underneath us is
// benched for the cooldown and the job is reassigned, up to MaxAttempts.
func (f *fleet) execute(ctx context.Context, j *job) ([]byte, error) {
	var lastErr string
	for attempt := 1; attempt <= f.cfg.MaxAttempts; attempt++ {
		w := f.pick(ctx)
		if w == nil {
			return nil, ctx.Err()
		}
		j.mu.Lock()
		j.worker, j.attempts = w.url, attempt
		j.mu.Unlock()
		data, permanent, err := f.dispatchHedged(ctx, j, w)
		if err == nil || permanent || ctx.Err() != nil {
			return data, err
		}
		lastErr = err.Error()
	}
	return nil, fmt.Errorf("exhausted %d attempts: %s", f.cfg.MaxAttempts, lastErr)
}

// dispatchHedged runs one dispatch round for a job: a primary worker, plus —
// when HedgeAfter is set and the primary is slow — at most one speculative
// re-dispatch to a second worker. First verdict wins: a success or a
// deterministic failure from either dispatch settles the round and cancels
// the other (which in turn cancels the job worker-side). Hedging is safe
// because results are content-addressed and bit-deterministic, so a
// duplicated job can waste a dispatch but never change an answer. A worker
// whose dispatch failed transiently (or timed out against DispatchTimeout)
// is benched inside the round.
func (f *fleet) dispatchHedged(ctx context.Context, j *job, primary *worker) ([]byte, bool, error) {
	type outcome struct {
		w         *worker
		data      []byte
		permanent bool
		err       error
	}
	results := make(chan outcome, 2) // buffered: a late loser must never block
	var cancels []context.CancelFunc // only this goroutine launches
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()

	launch := func(w *worker) {
		dctx, cancel := f.dispatchContext(ctx)
		cancels = append(cancels, cancel)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			data, permanent, err := f.dispatch(dctx, w, j.spec)
			results <- outcome{w: w, data: data, permanent: permanent, err: err}
		}()
	}
	launch(primary)
	launched := 1

	var hedgeC <-chan time.Time
	if f.cfg.HedgeAfter > 0 {
		hedgeTimer := time.NewTimer(f.cfg.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	var firstErr error
	for settled := 0; settled < launched; {
		select {
		case out := <-results:
			settled++
			if out.err == nil || out.permanent {
				// This dispatch settles the round; credit (or blame) its
				// worker, which under hedging may not be the primary.
				j.mu.Lock()
				j.worker = out.w.url
				j.mu.Unlock()
				return out.data, out.permanent, out.err
			}
			if ctx.Err() == nil {
				until := time.Now().Add(f.cfg.Cooldown)
				out.w.benched(until)
				f.cfg.Logf("campaign: %s on %s failed transiently (%v); benching worker until %s",
					j.id, out.w.url, out.err, until.Format(time.RFC3339))
			}
			if firstErr == nil {
				firstErr = out.err
			}
		case <-hedgeC:
			hedgeC = nil
			hw := f.choose(f.views(time.Now(), primary))
			if hw == nil {
				continue // no second worker free; keep waiting on the primary
			}
			j.mu.Lock()
			j.attempts++
			j.hedges++
			j.mu.Unlock()
			f.cfg.Logf("campaign: %s straggling on %s after %s; hedging to %s",
				j.id, primary.url, f.cfg.HedgeAfter, hw.url)
			launch(hw)
			launched++
		}
	}
	return nil, false, firstErr
}

// dispatchContext derives the one context of one dispatch, bounded by
// DispatchTimeout when that is set.
func (f *fleet) dispatchContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if f.cfg.DispatchTimeout > 0 {
		return context.WithTimeout(ctx, f.cfg.DispatchTimeout)
	}
	return context.WithCancel(ctx)
}

// views snapshots the routable workers, except skip, for the policy.
func (f *fleet) views(now time.Time, skip *worker) []WorkerView {
	var views []WorkerView
	for _, w := range f.workers {
		if w == skip || !w.healthy(now) {
			continue
		}
		w.mu.Lock()
		views = append(views, WorkerView{
			Index:    w.index,
			URL:      w.url,
			Healthy:  true,
			Queued:   w.queued,
			Running:  w.running,
			Inflight: w.inflight,
			Assigned: w.assigned,
		})
		w.mu.Unlock()
	}
	return views
}

// choose asks the routing policy for one of views; nil when there is none
// or the policy abstains. A hedge uses it directly, without a load refresh:
// a hedge is opportunistic, so if no other worker is routable right now
// there simply is no hedge.
func (f *fleet) choose(views []WorkerView) *worker {
	if len(views) == 0 {
		return nil
	}
	f.policyMu.Lock()
	i := f.policy.Pick(views)
	f.policyMu.Unlock()
	if i < 0 || i >= len(views) {
		return nil
	}
	return f.workers[views[i].Index]
}

// pick chooses a worker through the routing policy, refreshing /healthz
// counters first when the policy needs load data. When every worker is
// benched it waits for the earliest cooldown to lapse rather than failing —
// a fleet-wide blip should not kill a campaign. Returns nil only when ctx is
// cancelled while waiting.
func (f *fleet) pick(ctx context.Context) *worker {
	for {
		if f.spec.NeedsLoad {
			f.refreshLoads(ctx)
		}
		now := time.Now()
		if w := f.choose(f.views(now, nil)); w != nil {
			return w
		}
		// All benched (or the policy abstained): wait for the earliest
		// cooldown to lapse, then retry.
		wait := f.cfg.Cooldown
		for _, w := range f.workers {
			w.mu.Lock()
			if d := w.cooldown.Sub(now); d > 0 && d < wait {
				wait = d
			}
			w.mu.Unlock()
		}
		select {
		case <-time.After(wait + time.Millisecond):
		case <-ctx.Done():
			return nil
		}
	}
}

// refreshLoads probes every routable worker's /healthz so load-aware
// policies see fresh scheduler counters. A worker that fails its probe is
// benched — the probe doubles as a health check.
func (f *fleet) refreshLoads(ctx context.Context) {
	now := time.Now()
	var wg sync.WaitGroup
	for _, w := range f.workers {
		if !w.healthy(now) {
			continue
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			probeCtx, cancel := context.WithTimeout(ctx, f.cfg.ProbeTimeout)
			defer cancel()
			h, err := w.client.Health(probeCtx)
			if err != nil {
				w.benched(time.Now().Add(f.cfg.Cooldown))
				return
			}
			w.mu.Lock()
			w.queued, w.running = h.Queued, h.Running
			w.mu.Unlock()
		}(w)
	}
	wg.Wait()
}

// dispatch runs one job on one worker end to end: submit, wait, fetch the
// result. permanent marks failures that retrying elsewhere cannot fix (the
// job itself failed — deterministic); everything else (transport errors,
// the worker cancelling the job, e.g. during shutdown) is transient and
// worth reassigning.
func (f *fleet) dispatch(ctx context.Context, w *worker, spec api.JobSpec) (data []byte, permanent bool, err error) {
	w.mu.Lock()
	w.assigned++
	w.inflight++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.inflight--
		w.mu.Unlock()
	}()

	sub, err := w.client.Submit(ctx, spec)
	if err != nil {
		return nil, false, fmt.Errorf("submit: %w", err)
	}
	st, err := w.client.Wait(ctx, sub.ID)
	if err != nil {
		if ctx.Err() != nil {
			// Campaign cancelled, dispatch deadline hit, or a hedge won
			// elsewhere: tell the worker to stop wasting cycles on this job.
			cancelCtx, cancel := context.WithTimeout(context.Background(), f.cfg.CancelGrace)
			defer cancel()
			w.client.Cancel(cancelCtx, sub.ID)
		}
		return nil, false, fmt.Errorf("wait for %s: %w", sub.ID, err)
	}
	switch st.State {
	case api.StateDone:
		raw, err := w.client.Result(ctx, sub.ID)
		if err != nil {
			return nil, false, fmt.Errorf("result of %s: %w", sub.ID, err)
		}
		return raw, false, nil
	case api.StateFailed:
		return nil, true, fmt.Errorf("worker %s job %s failed: %s", w.url, sub.ID, st.Error)
	default: // cancelled underneath us (worker drain/restart)
		return nil, false, fmt.Errorf("worker %s job %s %s", w.url, sub.ID, st.State)
	}
}
