package jobstore

import (
	"sync/atomic"

	"chainckpt/internal/obs"
)

// Metrics is the journal's slice of the observability plane: latency
// histograms for the three I/O operations that can stall the job
// lifecycle — framed appends, the fsync inside each append, and
// compaction — plus collectors over the Stats of the journal Open
// bound last (reopening the store rebinds them). The append count is
// the append histogram's _count, so it has no family of its own. Nil
// (the default) costs one nil check per site.
type Metrics struct {
	// AppendSeconds measures each framed append, fsync included.
	AppendSeconds *obs.Histogram
	// FsyncSeconds isolates the fsync inside each append — the
	// durability stall itself.
	FsyncSeconds *obs.Histogram
	// CompactSeconds measures whole compactions (snapshot write,
	// rename, segment removal).
	CompactSeconds *obs.Histogram

	// journal is the store the collectors read; Open binds it.
	journal atomic.Pointer[Journal]
}

// NewMetrics registers the journal families on reg; nil reg returns
// nil metrics. The counter and gauge families render once Open has
// bound a journal.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		AppendSeconds: reg.NewHistogram("chainckpt_jobstore_append_seconds",
			"Wall-clock time of each journal append, fsync included.", nil),
		FsyncSeconds: reg.NewHistogram("chainckpt_jobstore_fsync_seconds",
			"Wall-clock time of the fsync inside each journal append.", nil),
		CompactSeconds: reg.NewHistogram("chainckpt_jobstore_compact_seconds",
			"Wall-clock time of each journal compaction.", nil),
	}
	// stat adapts one Stats field into a collector over the bound
	// journal; it sets nothing before Open has bound one.
	stat := func(get func(Stats) float64) func(obs.LabelSetter) {
		return func(set obs.LabelSetter) {
			if j := m.journal.Load(); j != nil {
				set.Set(get(j.Stats()))
			}
		}
	}
	reg.RegisterCounterFunc("chainckpt_jobstore_replayed_total",
		"Records applied during the boot-time journal replay.",
		stat(func(s Stats) float64 { return float64(s.Replayed) }))
	reg.RegisterCounterFunc("chainckpt_jobstore_skipped_corrupt_total",
		"Damaged journal frames skipped during replay.",
		stat(func(s Stats) float64 { return float64(s.SkippedCorrupt) }))
	reg.RegisterCounterFunc("chainckpt_jobstore_skipped_duplicates_total",
		"Duplicate transitions dropped during replay.",
		stat(func(s Stats) float64 { return float64(s.SkippedDuplicates) }))
	reg.RegisterCounterFunc("chainckpt_jobstore_compactions_total",
		"Journal compactions into a snapshot.",
		stat(func(s Stats) float64 { return float64(s.Compactions) }))
	reg.RegisterGaugeFunc("chainckpt_jobstore_jobs",
		"Live records in the durable job store.",
		stat(func(s Stats) float64 { return float64(s.Jobs) }))
	reg.RegisterGaugeFunc("chainckpt_jobstore_segments",
		"Journal segment files on disk.",
		stat(func(s Stats) float64 { return float64(s.Segments) }))
	return m
}
