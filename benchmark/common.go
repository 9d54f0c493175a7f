package main

import (
	"context"
	"math"
	"os"
	"path/filepath"

	"repro/internal/service"
)

// freshDir creates an empty directory called name under parent, removing
// what an earlier set-up left there.
func freshDir(parent, name string) (string, error) {
	dir := filepath.Join(parent, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// bandErr is one Table-4 cell: the absolute percentage errors of a
// prediction over one band of extrapolated cores.
type bandErr struct{ mean, max float64 }

// bandErrors bands a prediction as Table 4 does: one band per further
// processor past the measured one ((meas, 2·meas], (2·meas, 3·meas], ...),
// over extrapolated cores only.
func bandErrors(targets []int, meas int, pred, actual []float64) []bandErr {
	var out []bandErr
	for lo := meas; ; lo += meas {
		var sum, worst float64
		n := 0
		for i, c := range targets {
			if c > lo && c <= lo+meas {
				e := 100 * math.Abs(pred[i]-actual[i]) / actual[i]
				sum += e
				worst = math.Max(worst, e)
				n++
			}
		}
		if n == 0 {
			return out
		}
		out = append(out, bandErr{mean: sum / float64(n), max: worst})
	}
}

// setAccuracy reports the mean and the worst-in-band errors over every
// band of every scored request (nil entries are requests that failed).
func setAccuracy(m metricSet, reqs [][]bandErr) {
	var means, maxes []float64
	for _, bands := range reqs {
		for _, b := range bands {
			means = append(means, b.mean)
			maxes = append(maxes, b.max)
		}
	}
	m.set("pred_err_mean_pct", "%", mean(means))
	m.set("pred_err_max_pct", "%", mean(maxes))
}

// clientSnapshot completes a workload's snapshot with the counters every
// workload shares: the simulation hook's and the client's.
func clientSnapshot(e *env, cl *client, s snapshot) snapshot {
	s.simCalls, s.simNanos = e.col.calls.Load(), e.col.nanos.Load()
	s.httpReqs, s.httpSent, s.httpRecv, s.http429 = cl.requests.Load(), cl.sentBytes.Load(), cl.recvBytes.Load(), cl.rejected.Load()
	return s
}

// probeWithFleet runs the serving probes of a single-process workload
// against sg and a probe fleet booted for the purpose, whose coordinator
// coalescing counters it reports.
func probeWithFleet(ctx context.Context, e *env, cfg *config, cl *client, reqs []probeReq, sg *single, plan service.SweepRequest, m metricSet) error {
	dir, err := freshDir(cfg.work, "probe-fleet")
	if err != nil {
		return err
	}
	fl, err := newFleet(dir, e.col, e.tr)
	if err != nil {
		return err
	}
	defer fl.close()
	if err := probeServing(ctx, e.tr, cl, reqs, sg, fl, plan, m); err != nil {
		return err
	}
	started, hits, err := fl.coalesce(ctx, cl)
	if err != nil {
		return err
	}
	m.set("cluster.coalesce_started", "count", float64(started))
	m.set("cluster.coalesce_hits", "count", float64(hits))
	return nil
}
