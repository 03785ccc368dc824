package campaign

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"c3d/internal/faultify"
	"c3d/pkg/c3d/api"
)

// chaosWorkers starts n real worker daemons behind the deterministic
// fault-injecting middleware — the in-process equivalent of `c3dd -chaos`.
func chaosWorkers(t *testing.T, n int, plan string, seed uint64) []string {
	t.Helper()
	p, err := faultify.Lookup(plan)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, n)
	for i := range urls {
		s := newLocal(t, Config{MaxConcurrent: 2})
		in := faultify.NewInjector(p, seed+uint64(i))
		ts := httptest.NewServer(in.Middleware(s.Handler()))
		t.Cleanup(func() { ts.Close(); s.Close() })
		urls[i] = ts.URL
	}
	return urls
}

// hangingWorker is a real worker whose every request (bar the capabilities
// handshake) hangs until the client gives up — a daemon that wedged.
func hangingWorker(t *testing.T) string {
	t.Helper()
	s := newLocal(t, Config{MaxConcurrent: 2})
	in := faultify.NewInjector(faultify.Plan{Name: "always-hang", Hang: 1}, 1)
	ts := httptest.NewServer(in.Middleware(s.Handler()))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts.URL
}

// TestChaosCampaignByteIdentical is the fault-injection determinism gate: a
// campaign run over a fleet with seeded connection resets, 5xxs and delays
// must still assemble results byte-identical to a fault-free direct run —
// faults cost retries, never correctness.
func TestChaosCampaignByteIdentical(t *testing.T) {
	spec := testCampaign(4)
	want := referenceResults(t, spec.Jobs)

	_, cl := newCoordinator(t, Config{
		Workers:         chaosWorkers(t, 2, "flaky", 7),
		MaxAttempts:     10,
		Cooldown:        20 * time.Millisecond,
		DispatchTimeout: 10 * time.Second,
		ClientOptions: []api.ClientOption{
			api.WithRetries(4),
			api.WithBackoff(10 * time.Millisecond),
			api.WithBackoffCap(80 * time.Millisecond),
		},
	})
	_, res := runCampaign(t, cl, spec)
	for i, doc := range res.Results {
		if !bytes.Equal(doc, want[i]) {
			t.Errorf("chaos result %d differs from fault-free run:\n got %s\nwant %s", i, doc, want[i])
		}
	}
}

// TestDispatchDeadlineBenchesHungWorker checks the per-job dispatch deadline:
// a wedged worker trips DispatchTimeout, gets benched, and its job is
// reassigned to a healthy worker — the campaign completes correctly instead
// of hanging forever.
func TestDispatchDeadlineBenchesHungWorker(t *testing.T) {
	spec := testCampaign(2)
	want := referenceResults(t, spec.Jobs)
	healthy := startWorkers(t, 1)[0]

	_, cl := newCoordinator(t, Config{
		Workers:         []string{hangingWorker(t), healthy},
		Policy:          "round-robin",
		MaxAttempts:     4,
		Cooldown:        50 * time.Millisecond,
		DispatchTimeout: 300 * time.Millisecond,
		ClientOptions:   []api.ClientOption{api.WithRetries(0)},
	})
	st, res := runCampaign(t, cl, spec)
	reassigned := 0
	for _, j := range st.Jobs {
		if j.Worker != healthy {
			t.Errorf("job %d credited to %s, want the healthy worker", j.Index, j.Worker)
		}
		if j.Attempts > 1 {
			reassigned++
		}
	}
	if reassigned == 0 {
		t.Error("no job recorded a deadline-driven reassignment (attempts > 1)")
	}
	for i, doc := range res.Results {
		if !bytes.Equal(doc, want[i]) {
			t.Errorf("job %d result differs after deadline reassignment", i)
		}
	}
}

// TestHedgedDispatchRescuesStraggler checks hedging: with no dispatch
// deadline at all, a straggling primary is raced by a speculative second
// dispatch after HedgeAfter, and the first result wins.
func TestHedgedDispatchRescuesStraggler(t *testing.T) {
	spec := testCampaign(1)
	want := referenceResults(t, spec.Jobs)
	healthy := startWorkers(t, 1)[0]

	_, cl := newCoordinator(t, Config{
		Workers:       []string{hangingWorker(t), healthy},
		Policy:        "round-robin",
		Cooldown:      50 * time.Millisecond,
		HedgeAfter:    200 * time.Millisecond,
		ClientOptions: []api.ClientOption{api.WithRetries(0)},
	})
	st, res := runCampaign(t, cl, spec)
	j := st.Jobs[0]
	if j.Hedges < 1 {
		t.Errorf("job recorded %d hedges, want >= 1", j.Hedges)
	}
	if j.Worker != healthy {
		t.Errorf("job credited to %s, want the hedge winner", j.Worker)
	}
	if !bytes.Equal(res.Results[0], want[0]) {
		t.Error("hedged result differs from direct run")
	}
}

// TestCloseMidCampaignReleasesEverything is the shutdown-hygiene gate:
// hard-closing a coordinator mid-campaign must settle every job into a
// terminal state and leak no goroutines — dispatch loops, hedges and waiting
// pickers all unwind.
func TestCloseMidCampaignReleasesEverything(t *testing.T) {
	workers := startWorkers(t, 2)
	before := runtime.NumGoroutine()

	co, err := New(t.Context(), Config{
		Workers: workers,
		ClientOptions: []api.ClientOption{
			// Keep-alive connections park goroutines in the background; turn
			// them off so the leak check measures ours, not the pool's.
			api.WithHTTPClient(&http.Client{Transport: &http.Transport{DisableKeepAlives: true}}),
			api.WithRetries(0),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := testCampaign(4)
	for i := range spec.Jobs {
		spec.Jobs[i].Params.Accesses = 20000 // slow enough to be mid-flight at Close
	}
	resp, err := co.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for inFlight := false; !inFlight; {
		st, err := co.Status(resp.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range st.Jobs {
			if j.State == api.StateRunning {
				inFlight = true
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never got a job in flight")
		}
		if !inFlight {
			time.Sleep(5 * time.Millisecond)
		}
	}

	co.Close()

	st, err := co.Status(resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !api.Terminal(st.State) {
		t.Errorf("campaign still %s after Close", st.State)
	}
	for _, j := range st.Jobs {
		if !api.Terminal(j.State) {
			t.Errorf("job %d still %s after Close", j.Index, j.State)
		}
	}

	// Everything Close spawned must unwind; give cancelled dispatches a
	// moment to observe their contexts.
	leakDeadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after Close\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainingCoordinatorRejectsNewCampaigns checks drain semantics at the
// coordinator: after Drain begins, health reports "draining" and new
// campaigns answer shutting_down, while an admitted campaign still finishes.
func TestDrainingCoordinatorRejectsNewCampaigns(t *testing.T) {
	co, cl := newCoordinator(t, Config{Workers: startWorkers(t, 1)})
	cl = api.NewClient(cl.BaseURL(), api.WithRetries(0))

	resp, err := cl.SubmitCampaign(t.Context(), testCampaign(2))
	if err != nil {
		t.Fatal(err)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := co.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if h := co.Health(); h.Status != "draining" {
		t.Errorf("health status after drain = %q, want draining", h.Status)
	}
	st, err := cl.CampaignStatus(t.Context(), resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Errorf("draining coordinator finished the campaign %s: %s", st.State, st.Error)
	}
	_, err = cl.SubmitCampaign(t.Context(), testCampaign(1))
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeShuttingDown {
		t.Errorf("submit during drain: %v, want shutting_down", err)
	}
}
