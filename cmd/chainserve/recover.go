// Cold-start recovery: on boot, the service replays the durable job
// store and reconciles every record with reality. Terminal jobs are
// re-listed as they ended. Interrupted jobs — created, planned or
// running when the process died — are resumed, not restarted: the
// job's checkpoint directory is scanned for the most recent checkpoint
// whose fingerprint still verifies (runtime.RecoverLatest, skipping
// damaged files), the remaining suffix is re-planned in place through
// the solver kernel's ReplanSuffix under the estimator evidence the
// journal persisted at the last progress transition (never a
// full-chain re-solve), and the supervisor is relaunched from the
// restored task index. This is the paper's two-level recovery promoted
// to service scale: the fail-stop error is the service itself dying,
// and the localized-recovery literature's lesson applies unchanged —
// recover the affected suffix, never re-execute the world.
package main

import (
	"context"
	"encoding/json"
	"fmt"

	"chainckpt/internal/jobstore"
	"chainckpt/internal/runtime"
	"chainckpt/internal/schedule"
)

// recoverJobs replays the job store, re-listing finished jobs and
// resuming interrupted ones. It returns how many were resumed and how
// many adopted in their terminal state; jobs that cannot be resumed
// (unreadable spec, invalid schedule) are marked failed rather than
// silently dropped.
func (s *server) recoverJobs(ctx context.Context) (resumed, adopted int) {
	for _, rec := range s.jobs.store.List() {
		if rec.State.Terminal() {
			s.jobs.register(rec)
			adopted++
			continue
		}
		if err := s.resumeJob(ctx, rec); err != nil {
			j, _, _ := s.jobs.register(rec)
			s.jobs.finish(j, nil, fmt.Errorf("resume: %w", err))
			continue
		}
		resumed++
		s.jobsResumed.Add(1)
	}
	return resumed, adopted
}

// resumeJob relaunches one interrupted job from its durable record.
func (s *server) resumeJob(ctx context.Context, rec jobstore.Record) error {
	var jr jobRequest
	if err := json.Unmarshal(rec.Spec, &jr); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	jr.normalize()
	req, c, err := jr.toEngine()
	if err != nil {
		return fmt.Errorf("spec: %w", err)
	}

	// The planned schedule travels in the record; a job that died before
	// its planned transition is planned from scratch (through the memo).
	var sched *schedule.Schedule
	if len(rec.Schedule) > 0 {
		sched = new(schedule.Schedule)
		if err := json.Unmarshal(rec.Schedule, sched); err != nil {
			return fmt.Errorf("schedule: %w", err)
		}
		if sched.Len() != c.Len() {
			return fmt.Errorf("schedule for %d tasks but chain has %d", sched.Len(), c.Len())
		}
		sched = sched.Clone()
	} else {
		res, err := s.eng.Plan(ctx, req)
		if err != nil {
			return fmt.Errorf("planning: %w", err)
		}
		sched = res.Schedule
	}

	var est runtime.EstimatorState
	if len(rec.Estimator) > 0 {
		// Unreadable estimator evidence only costs the rates, not the
		// resume.
		json.Unmarshal(rec.Estimator, &est)
	}

	// Reconcile with the checkpoint directory: the last verifiable disk
	// checkpoint decides where execution restarts, and the suffix after
	// it is re-planned in place under the platform rates the persisted
	// evidence supports.
	ck, err := s.jobs.newCheckpointStore(rec.ID, jr.Retention)
	if err != nil {
		return err
	}
	from, _, err := ck.RecoverLatest()
	if err != nil {
		return fmt.Errorf("checkpoint scan: %w", err)
	}
	if from > 0 && from < c.Len() {
		// A failed suffix re-plan is not fatal: the persisted schedule
		// still executes correctly under the modeled rates.
		if res, err := runtime.ReplanSuffix(ctx, s.eng.Kernel(), req.Algorithm, c,
			est.ReplanPlatform(req.Platform, 0), sched, from, req.Opts); err == nil {
			sched.SpliceSuffix(from, res.Schedule)
		}
	}

	schedJSON, err := json.Marshal(sched)
	if err != nil {
		return err
	}
	// The seed the interrupted run used: explicit in the spec, else the
	// one the admission handler derived and journaled; rec.Seq covers
	// journals written before seeds were persisted.
	switch {
	case jr.Seed != 0:
		rec.Seed = jr.Seed
	case rec.Seed == 0:
		rec.Seed = rec.Seq
	}
	// The resumed life is recorded like any fresh run; its first
	// lifecycle record is the running transition registration journals,
	// with the (possibly re-spliced) schedule and the resume counted.
	j, initial, _ := s.jobs.register(rec, func(r *jobstore.Record) {
		r.State, r.Schedule = jobstore.StateRunning, schedJSON
		r.Resumes++
	})
	s.start(j, initial, &jr, req, c, sched, ck, &est)
	return nil
}
