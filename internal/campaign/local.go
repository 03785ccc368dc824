package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"c3d/pkg/c3d"
	"c3d/pkg/c3d/api"
)

// local is the worker node's executor: every job runs in-process through
// pkg/c3d — the same Session facade the CLIs use — so a worker-run
// experiment's result bytes are identical to `c3dexp -json` output for the
// same parameters, at any parallelism. Machine reuse comes for free: the
// SDK's experiment layer pools machines by configuration, so a long-lived
// daemon stops paying construction costs once the pools are warm.
type local struct{}

func (local) execute(ctx context.Context, j *job) ([]byte, error) {
	sess, err := c3d.Params(j.spec.Params).Session(c3d.WithProgress(j.recordEvent))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	switch j.spec.Kind {
	case api.KindExperiment:
		var results []c3d.ExperimentResult
		if results, err = sess.Sweep(ctx, j.spec.Experiments...); err == nil {
			// Render exactly the bytes `c3dexp -json` prints: one shared
			// writer, so worker and CLI results are comparable with cmp.
			err = c3d.WriteResultsJSON(&buf, results)
		}
	case api.KindSimulate:
		var res *c3d.SimulateResult
		var out []byte
		if res, err = sess.Simulate(ctx, j.spec.Workload); err == nil {
			if out, err = json.MarshalIndent(res, "", "  "); err == nil {
				buf.Write(append(out, '\n'))
			}
		}
	case api.KindVerify:
		var res *c3d.VerifyResult
		res, err = sess.Verify(ctx, c3d.VerifyRequest{
			Sockets:       j.spec.Verify.Sockets,
			LoadsPerCore:  j.spec.Verify.LoadsPerCore,
			StoresPerCore: j.spec.Verify.StoresPerCore,
			MaxStates:     j.spec.Verify.MaxStates,
			BaseOnly:      j.spec.Verify.BaseOnly,
		})
		// Reports are kept even when verification fails: the result document
		// is how clients see which invariant broke.
		if err == nil {
			if err = c3d.WriteReportsJSON(&buf, res.Reports); err == nil && !res.Passed() {
				err = fmt.Errorf("verification found violations")
			}
		}
	default:
		err = fmt.Errorf("unknown job kind %q", j.spec.Kind)
	}
	return buf.Bytes(), err
}

// submitJob admits one plain job. Admission counts the jobs in state queued
// under the table lock, so a job cancelled while queued frees its slot at
// once.
func (c *Coordinator) submitJob(spec api.JobSpec) (*job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, apiError(http.StatusServiceUnavailable, api.CodeShuttingDown, "server shutting down")
	}
	if queued, _, _ := c.jobs.counts(); queued >= c.cfg.QueueDepth {
		return nil, apiError(http.StatusServiceUnavailable, api.CodeQueueFull, "job queue full (%d pending)", c.cfg.QueueDepth)
	}
	id := c.jobs.newID()
	j := newJob(id, spec, c.stopCtx)
	c.jobs.add(id, j)
	c.enqueueLocked(j)
	return j, nil
}

// jobPage returns one page of plain-job statuses in submission order.
func (c *Coordinator) jobPage(offset, limit int) api.JobPage {
	c.mu.Lock()
	defer c.mu.Unlock()
	jobs, total, offset := pageOf(&c.jobs, offset, limit, (*job).statusDoc)
	return api.JobPage{Jobs: jobs, Total: total, Offset: offset}
}
