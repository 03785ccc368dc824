// Command c3dd is the C3D job-service daemon, an HTTP/JSON front end over
// the job engine in internal/campaign. By default it is a worker: it runs
// simulation, experiment and verification jobs in-process through pkg/c3d,
// bounds their concurrency, streams progress, and serves results that are
// byte-identical to the CLIs' output for the same parameters.
//
// With -coordinator the same engine dispatches to a fleet instead: a front
// door that shards campaigns (ordered lists of job specs) across worker
// c3dd daemons, routes jobs through a pluggable policy, reassigns jobs whose
// worker died, serves repeats from a content-addressed result cache, and
// assembles results in submission order. A flag the selected mode does not
// use is an error (exit 2), never silently ignored.
//
// Usage:
//
//	c3dd                              # worker daemon on :8080
//	c3dd -addr 127.0.0.1:9090 -jobs 2
//	c3dd -coordinator -workers http://w1:8080,http://w2:8080 \
//	     -policy least-loaded -rate 100 -burst 400
//	c3dd -coordinator -workers ... -journal /var/lib/c3d \
//	     -dispatch-timeout 90s -hedge-after 30s   # durable + fault-tolerant
//	c3dd -chaos flaky:7                           # deterministic fault injection
//
// Shutdown: SIGTERM drains — running jobs finish, new submissions answer 503
// and /healthz reports "draining" until -drain-timeout elapses; SIGINT
// cancels everything immediately. A coordinator with -journal records
// campaign admissions and job completions in an append-only JSONL log and
// keeps results in a disk-backed content-addressed cache, so a restart with
// the same -journal directory resumes interrupted campaigns without
// re-running finished jobs (see the README "Failure model & operations").
//
// Worker API walkthrough (see the README "SDK & service" section for more):
//
//	curl localhost:8080/healthz
//	curl -X POST localhost:8080/v1/jobs -d '{
//	  "kind": "experiment",
//	  "experiments": ["table1"],
//	  "params": {"quick": true, "workloads": ["streamcluster"], "accesses": 2000}
//	}'
//	curl localhost:8080/v1/jobs/job-000001          # poll status
//	curl -N localhost:8080/v1/jobs/job-000001/events # follow progress (JSON lines)
//	curl localhost:8080/v1/jobs/job-000001/result    # == c3dexp -json bytes
//	curl -X DELETE localhost:8080/v1/jobs/job-000001 # cancel
//
// Coordinator API (see the README "Distributed campaigns" section):
//
//	curl -X POST coordinator:8080/v1/campaigns -d '{"jobs":[...]}'
//	curl coordinator:8080/v1/campaigns/campaign-000001
//	curl coordinator:8080/v1/campaigns/campaign-000001/results
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"c3d/internal/campaign"
	"c3d/internal/faultify"
	"c3d/pkg/c3d"
	"c3d/pkg/c3d/api"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		jobs    = flag.Int("jobs", 1, "jobs running concurrently; each job parallelises internally, see params.parallel (worker mode)")
		queue   = flag.Int("queue", 256, "queued-job bound; submissions beyond it get 503 (worker mode)")
		retain  = flag.Int("retain", 1024, "finished jobs kept for result fetches before eviction (worker mode)")
		version = flag.Bool("version", false, "print the build version and exit")

		chaos = flag.String("chaos", "", fmt.Sprintf("inject deterministic faults from a seeded plan, as <plan>[:<seed>]: %s (testing only)",
			strings.Join(faultify.Plans(), ", ")))
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "how long SIGTERM waits for running work before hard-cancelling")

		coordinator = flag.Bool("coordinator", false, "run as a campaign coordinator over a worker fleet instead of a worker")
		workers     = flag.String("workers", "", "comma-separated worker base URLs (coordinator mode, required)")
		policy      = flag.String("policy", campaign.DefaultPolicy,
			fmt.Sprintf("routing policy: %s (coordinator mode)", strings.Join(campaign.Policies(), ", ")))
		rate            = flag.Float64("rate", 50, "admission rate in jobs/second (coordinator mode)")
		burst           = flag.Int("burst", 200, "admission burst: max jobs admitted at once (coordinator mode)")
		cache           = flag.Int("cache", 1024, "content-addressed result cache entries (coordinator mode)")
		attempts        = flag.Int("attempts", 3, "dispatch attempts per job before its campaign fails (coordinator mode)")
		cooldown        = flag.Duration("cooldown", 2*time.Second, "bench time for a worker after a transient failure (coordinator mode)")
		journalDir      = flag.String("journal", "", "directory for the durable campaign journal + disk result cache; restart resumes interrupted campaigns (coordinator mode)")
		dispatchTimeout = flag.Duration("dispatch-timeout", 2*time.Minute, "per-job dispatch deadline; a hung worker is benched and the job reassigned; 0 disables (coordinator mode)")
		hedgeAfter      = flag.Duration("hedge-after", 0, "re-dispatch a straggling job to a second worker after this long, first result wins; 0 disables (coordinator mode)")
		probeTimeout    = flag.Duration("probe-timeout", 2*time.Second, "per-worker /healthz probe deadline (coordinator mode)")
		cancelGrace     = flag.Duration("cancel-grace", 2*time.Second, "deadline for best-effort worker-side job cancels (coordinator mode)")
	)
	flag.Parse()
	if *version {
		fmt.Println("c3dd", c3d.Version())
		return
	}
	// A flag the selected mode does not use is rejected, not ignored; the
	// usage text of every such flag names the mode it belongs to.
	otherMode, where := "(worker mode)", "with -coordinator"
	if !*coordinator {
		otherMode, where = "(coordinator mode", "without -coordinator"
	}
	flag.Visit(func(f *flag.Flag) {
		if strings.Contains(f.Usage, otherMode) {
			fmt.Fprintf(os.Stderr, "c3dd: -%s has no effect %s\n", f.Name, where)
			os.Exit(2)
		}
	})
	if *coordinator && *workers == "" {
		fmt.Fprintln(os.Stderr, "c3dd: -coordinator requires -workers url[,url...]")
		os.Exit(2)
	}

	var injector *faultify.Injector
	if *chaos != "" {
		in, err := faultify.Parse(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c3dd:", err)
			os.Exit(2)
		}
		injector = in
		fmt.Fprintf(os.Stderr, "c3dd: CHAOS MODE: injecting plan %q with seed %d\n", in.Plan().Name, in.Seed())
	}

	// SIGINT hard-stops (cancel everything, exit); SIGTERM drains (finish
	// running work, 503 new work, then exit).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)

	// One construction path: the flags of the other mode are at their
	// defaults here, and the engine ignores them.
	cfg := campaign.Config{
		MaxConcurrent:   *jobs,
		QueueDepth:      *queue,
		MaxJobs:         *retain,
		Policy:          *policy,
		RatePerSec:      *rate,
		Burst:           *burst,
		CacheEntries:    *cache,
		MaxAttempts:     *attempts,
		Cooldown:        *cooldown,
		DispatchTimeout: *dispatchTimeout,
		HedgeAfter:      *hedgeAfter,
		ProbeTimeout:    *probeTimeout,
		CancelGrace:     *cancelGrace,
		JournalDir:      *journalDir,
		Logf:            log.New(os.Stderr, "c3dd: ", log.LstdFlags).Printf,
	}
	if *coordinator {
		cfg.Workers = strings.Split(*workers, ",")
		cfg.MaxConcurrent = 0 // the engine's fleet default: 2 per worker
		if injector != nil {
			// Coordinator chaos is client-side: every dispatch to the fleet
			// runs through the fault-injecting transport.
			cfg.ClientOptions = append(cfg.ClientOptions, api.WithHTTPClient(&http.Client{Transport: injector.Transport(nil)}))
		}
	}
	engine, err := campaign.New(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3dd:", err)
		os.Exit(1)
	}
	handler, role := engine.Handler(), fmt.Sprintf("max %d concurrent jobs", *jobs)
	if *coordinator {
		role = fmt.Sprintf("coordinating %d workers, policy %s", len(cfg.Workers), *policy)
	} else if injector != nil {
		// Worker chaos is server-side: requests fault before reaching the
		// scheduler (except /v1/capabilities, which faultify exempts so
		// coordinators can always handshake).
		handler = injector.Middleware(handler)
	}
	fmt.Fprintf(os.Stderr, "c3dd %s listening on %s (%s)\n", c3d.Version(), *addr, role)

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		select {
		case <-term:
			// Graceful drain: the HTTP listener stays up while work finishes,
			// so health probes see "draining" and submissions get 503s
			// instead of connection refusals.
			fmt.Fprintf(os.Stderr, "c3dd: SIGTERM: draining (up to %s)\n", *drainTimeout)
			drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			if err := engine.Drain(drainCtx); err != nil {
				fmt.Fprintln(os.Stderr, "c3dd: drain incomplete:", err)
			}
			cancel()
		case <-ctx.Done():
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	err = httpSrv.ListenAndServe()
	engine.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "c3dd:", err)
		os.Exit(1)
	}
}
