package runtime

import (
	"sync/atomic"

	"chainckpt/internal/obs"
)

// Metrics is the runtime supervisor's slice of the observability
// plane: wall-clock latency histograms for every execution-side cost
// the paper's model charges abstractly — task execution, verification,
// the two-phase disk-checkpoint commit (and its fsync alone), recovery
// by tier, and adaptive suffix re-plans — plus checkpoint payload
// sizes — and a collector over the re-plan count of the supervisor New
// bound. These are the measured inputs a future self-driving ops plane
// feeds back into planning; nil (the default) costs one nil check per
// site.
type Metrics struct {
	// TaskSeconds measures each TaskRunner.Run call, re-executions
	// included.
	TaskSeconds *obs.Histogram
	// VerifySeconds measures each verification (partial and
	// guaranteed).
	VerifySeconds *obs.Histogram
	// CkptCommitSeconds measures the whole two-phase disk-checkpoint
	// commit: state write through journal commit hook.
	CkptCommitSeconds *obs.Histogram
	// CkptFsyncSeconds isolates the fsync of the checkpoint file — the
	// stall the paper's C_D cost abstracts.
	CkptFsyncSeconds *obs.Histogram
	// CkptBytes sizes checkpoint payloads written to the disk tier.
	CkptBytes *obs.Histogram
	// RecoverySeconds measures restores by tier ("disk" after a
	// fail-stop, "memory" after a detected silent corruption).
	RecoverySeconds *obs.HistogramVec
	// ReplanSeconds measures adaptive suffix re-solves through
	// Kernel.ReplanSuffix, failed ones included.
	ReplanSeconds *obs.Histogram

	// sup is the supervisor the replans collector reads; New binds it.
	sup atomic.Pointer[Supervisor]
}

// NewMetrics registers the runtime families on reg; nil reg returns
// nil metrics. The replans family renders once New has bound a
// supervisor.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		TaskSeconds: reg.NewHistogram("chainckpt_runtime_task_seconds",
			"Wall-clock time of each task execution, re-executions included.", nil),
		VerifySeconds: reg.NewHistogram("chainckpt_runtime_verify_seconds",
			"Wall-clock time of each verification.", nil),
		CkptCommitSeconds: reg.NewHistogram("chainckpt_runtime_ckpt_commit_seconds",
			"Wall-clock time of the two-phase disk-checkpoint commit.", nil),
		CkptFsyncSeconds: reg.NewHistogram("chainckpt_runtime_ckpt_fsync_seconds",
			"Wall-clock time of the checkpoint file fsync alone.", nil),
		CkptBytes: reg.NewHistogram("chainckpt_runtime_ckpt_bytes",
			"Checkpoint payload bytes written to the disk tier.", obs.ByteBuckets),
		RecoverySeconds: reg.NewHistogramVec("chainckpt_runtime_recovery_seconds",
			"Wall-clock time of checkpoint restores by tier.", nil, "tier"),
		ReplanSeconds: reg.NewHistogram("chainckpt_runtime_replan_seconds",
			"Wall-clock time of adaptive suffix re-plans.", nil),
	}
	reg.RegisterCounterFunc("chainckpt_runtime_replans_total",
		"Adaptive suffix re-plans spliced into running schedules, across all jobs.",
		func(set obs.LabelSetter) {
			if s := m.sup.Load(); s != nil {
				set.Set(float64(s.replans.Load()))
			}
		})
	return m
}
