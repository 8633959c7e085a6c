package main

import (
	"fmt"
	"time"

	"chainckpt/internal/core"
	"chainckpt/internal/jobstore"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perLayer lists every per-layer metric the traced run reports, with
// its unit. A layer a workload leaves idle reports 0.
var perLayer = []struct{ name, unit string }{
	{"chainserve.overhead_ms_p50", "ms"},
	{"ops.admit_wait_ms_p99", "ms"},
	{"ops.shed_ratio", "ratio"},
	{"engine.hit_ratio", "ratio"},
	{"engine.plan_ms_p50", "ms"},
	{"engine.plan_ms_p99", "ms"},
	{"engine.fanout", "x"},
	{"core.solve_ms_p50", "ms"},
	{"core.solve_ms_p99", "ms"},
	{"core.solve_ms_mean.adv_star", "ms"},
	{"core.solve_ms_mean.admv_star", "ms"},
	{"core.solve_ms_mean.admv", "ms"},
	{"core.alloc_kb_per_solve", "KiB"},
	{"core.scratch_reuse_ratio", "ratio"},
	{"runtime.run_ms_p50", "ms"},
	{"runtime.task_ms_per_job", "ms"},
	{"runtime.verify_ms_per_job", "ms"},
	{"runtime.self_ms_p50", "ms"},
	{"runtime.ckpt_save_ms_p50", "ms"},
	{"runtime.disk_ckpts_per_job", "count"},
	{"runtime.recoveries_per_job", "count"},
	{"runtime.replans_per_job", "count"},
	{"jobstore.append_ms_p50", "ms"},
	{"jobstore.append_ms_p99", "ms"},
	{"jobstore.appends_per_job", "count"},
	{"jobstore.compactions_per_1k_jobs", "count"},
	{"replay.seal_ms_p50", "ms"},
	{"replay.recording_kb", "KiB"},
	{"trace.unattributed_pct", "%"},
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	e2eP50Ms   float64
	replay     *replayResult
	hits, reqs uint64 // engine counter deltas over the replay
	solves     *solveStats
	ckptSaves  []time.Duration
	jsBefore   jobstore.Stats
	jsAfter    jobstore.Stats
}

// layerMetrics derives the per-layer metrics from the traced replay's
// spans and outcomes. Its self-check fails when a span exceeds its
// parent or a listed metric was not computed; the metrics computed so
// far are returned with the error.
func layerMetrics(in layerInputs) (map[string]metric, error) {
	byName := map[string][]time.Duration{}
	var violations int
	var opTotal, opUncovered int64
	var selfMs []float64
	var taskTotal, verifyTotal time.Duration
	for _, ws := range in.replay.spans {
		children := make([][][2]int64, len(ws))
		for _, s := range ws {
			byName[s.Name] = append(byName[s.Name], s.dur())
			if s.Parent >= 0 {
				p := ws[s.Parent]
				if s.Start < p.Start || s.End > p.End {
					violations++
				}
				children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
			}
			switch s.Name {
			case "runtime.task":
				taskTotal += s.dur()
			case "runtime.verify":
				verifyTotal += s.dur()
			}
		}
		for i, s := range ws {
			switch s.Name {
			case "op":
				opTotal += int64(s.dur())
				opUncovered += int64(s.dur()) - covered(children[i])
			case "runtime.run":
				selfMs = append(selfMs, float64(int64(s.dur())-covered(children[i]))/1e6)
			}
		}
	}
	ms := func(name string, q float64) float64 { return quantile(millis(byName[name]), q) }
	var planSecs float64
	for _, d := range byName["engine.plan"] {
		planSecs += d.Seconds()
	}

	var shed, kernelSecs float64
	var jobs int
	var disk, recov, replans int64
	var recBytes int
	for _, oc := range in.replay.outcomes {
		if oc.shed {
			shed++
		}
		kernelSecs += oc.kernelSecs
		if oc.rep != nil {
			jobs++
			disk += oc.rep.Events.CheckpointsDisk
			recov += oc.rep.Events.DiskRecoveries + oc.rep.Events.MemoryRecoveries
			replans += oc.rep.Events.Replans
			recBytes += oc.recBytes
		}
	}
	nj := float64(jobs)
	v := map[string]float64{
		"chainserve.overhead_ms_p50":       in.e2eP50Ms - ms("op", 0.5),
		"ops.admit_wait_ms_p99":            ms("ops.admit", 0.99),
		"ops.shed_ratio":                   ratio(shed, float64(len(in.replay.outcomes))),
		"engine.hit_ratio":                 ratio(float64(in.hits), float64(in.reqs)),
		"engine.plan_ms_p50":               ms("engine.plan", 0.5),
		"engine.plan_ms_p99":               ms("engine.plan", 0.99),
		"engine.fanout":                    ratio(kernelSecs, planSecs),
		"runtime.run_ms_p50":               ms("runtime.run", 0.5),
		"runtime.task_ms_per_job":          ratio(float64(taskTotal)/1e6, nj),
		"runtime.verify_ms_per_job":        ratio(float64(verifyTotal)/1e6, nj),
		"runtime.self_ms_p50":              quantile(selfMs, 0.5),
		"runtime.ckpt_save_ms_p50":         quantile(millis(in.ckptSaves), 0.5),
		"runtime.disk_ckpts_per_job":       ratio(float64(disk), nj),
		"runtime.recoveries_per_job":       ratio(float64(recov), nj),
		"runtime.replans_per_job":          ratio(float64(replans), nj),
		"jobstore.append_ms_p50":           ms("jobstore.append", 0.5),
		"jobstore.append_ms_p99":           ms("jobstore.append", 0.99),
		"jobstore.appends_per_job":         ratio(float64(in.jsAfter.Appends-in.jsBefore.Appends), nj),
		"jobstore.compactions_per_1k_jobs": ratio(1000*float64(in.jsAfter.Compactions-in.jsBefore.Compactions), nj),
		"replay.seal_ms_p50":               ms("replay.seal", 0.5),
		"replay.recording_kb":              ratio(float64(recBytes)/1024, nj),
		"trace.unattributed_pct":           100 * ratio(float64(opUncovered), float64(opTotal)),
	}
	for _, name := range []string{"core.solve_ms_p50", "core.solve_ms_p99", "core.solve_ms_mean.adv_star",
		"core.solve_ms_mean.admv_star", "core.solve_ms_mean.admv", "core.alloc_kb_per_solve", "core.scratch_reuse_ratio"} {
		v[name] = 0
	}
	if s := in.solves; s != nil && len(s.times) > 0 {
		n := float64(len(s.times))
		v["core.solve_ms_p50"] = quantile(millis(s.times), 0.5)
		v["core.solve_ms_p99"] = quantile(millis(s.times), 0.99)
		v["core.solve_ms_mean.adv_star"] = mean(millis(s.byAlg[core.AlgADV]))
		v["core.solve_ms_mean.admv_star"] = mean(millis(s.byAlg[core.AlgADMVStar]))
		v["core.solve_ms_mean.admv"] = mean(millis(s.byAlg[core.AlgADMV]))
		v["core.alloc_kb_per_solve"] = float64(s.allocBytes) / 1024 / n
		v["core.scratch_reuse_ratio"] = ratio(float64(s.kernel.ScratchReuses),
			float64(s.kernel.ScratchReuses+s.kernel.ScratchFresh))
	}
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		val, ok := v[m.name]
		if !ok {
			return out, fmt.Errorf("self-check: per-layer metric %s was not computed", m.name)
		}
		out[m.name] = metric{Value: val, Unit: m.unit}
	}
	if len(v) != len(out) {
		return out, fmt.Errorf("self-check: %d metrics computed but %d listed", len(v), len(out))
	}
	if violations > 0 {
		return out, fmt.Errorf("self-check: %d spans exceed their parent", violations)
	}
	return out, nil
}
