package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"chainckpt/internal/chain"
	"chainckpt/internal/core"
	"chainckpt/internal/platform"
	"chainckpt/internal/workload"
)

// instance is one planning instance as the wire names it.
type instance struct {
	Alg     core.Algorithm
	Plat    string             // Table I platform name; empty when Spec is set
	Spec    *platform.Platform // custom platform (jobs-durable)
	Pattern workload.Pattern
	N       int
	Total   float64
}

// planReq is the wire shape of one POST /v1/plan body.
type planReq struct {
	Algorithm    string             `json:"algorithm"`
	Platform     string             `json:"platform,omitempty"`
	PlatformSpec *platform.Platform `json:"platform_spec,omitempty"`
	Pattern      string             `json:"pattern"`
	N            int                `json:"n"`
	Total        float64            `json:"total"`
}

// jobReq is the wire shape of one POST /v1/jobs body.
type jobReq struct {
	planReq
	Adaptive bool    `json:"adaptive,omitempty"`
	Seed     uint64  `json:"seed"`
	ScaleF   float64 `json:"true_rate_scale_f,omitempty"`
	ScaleS   float64 `json:"true_rate_scale_s,omitempty"`
}

func (in instance) wire() planReq {
	return planReq{
		Algorithm: string(in.Alg), Platform: in.Plat, PlatformSpec: in.Spec,
		Pattern: string(in.Pattern), N: in.N, Total: in.Total,
	}
}

// compile builds the chain and platform exactly as chainserve does from
// the wire request.
func (in instance) compile() (*chain.Chain, platform.Platform, error) {
	p := platform.Platform{}
	if in.Spec != nil {
		p = *in.Spec
	} else {
		var err error
		if p, err = platform.ByName(in.Plat); err != nil {
			return nil, p, err
		}
	}
	c, err := workload.Generate(in.Pattern, in.N, in.Total)
	return c, p, err
}

// jobSpec is one job of jobs-durable: an instance plus runtime knobs.
type jobSpec struct {
	Inst     int // index into workloadGen.insts
	Seed     uint64
	Adaptive bool
	Scale    float64 // true-rate multiple for both sources (1 = well specified)
}

func (w *workloadGen) jobWire(js jobSpec) jobReq {
	jr := jobReq{planReq: w.insts[js.Inst].wire(), Adaptive: js.Adaptive, Seed: js.Seed}
	if js.Scale != 1 {
		jr.ScaleF, jr.ScaleS = js.Scale, js.Scale
	}
	return jr
}

// op is one operation the client waits on: a plan (plan-hot), a batch
// (plan-cold) or a job run to its end (jobs-durable).
type op struct {
	Insts []int // plan ops: instance indexes
	Job   jobSpec
}

// workloadGen produces a workload's instances and its op stream, all
// from the seed. The stream is consumed in order from one generator,
// so the ops of a run depend only on the seed and on how many ops fit
// in the timed phase.
type workloadGen struct {
	name  string
	conns int
	rng   *rand.Rand
	insts []instance
	// primed is how many leading instances setup plans into the memo.
	primed int
	// setupReps is how many times a run sets chainserve up; setup_s is
	// the median and the last server set up is the one measured.
	setupReps int
	// jobSeq numbers jobs across priming and the timed phase, so every
	// job gets its own seed.
	jobSeq uint64
	seed   uint64
	// coldSeq numbers plan-cold instances; phase offsets each
	// algorithm's low-discrepancy size sequence.
	coldSeq int
	phase   [3]float64

	mu        sync.Mutex
	firstBody map[int][]byte // plan-hot: first answer per instance (see keep)
}

var tablePlatforms = []string{"Hera", "Atlas", "Coastal", "Coastal SSD"}

// platformL is the fault-heavy custom platform the jobs run on: enough
// fail-stop and silent errors per run that recovery, rollback and
// adaptive re-planning all happen.
var platformL = platform.Platform{
	Name: "L", LambdaF: 1e-4, LambdaS: 4e-4, CD: 100, CM: 10, RD: 100, RM: 10,
	VStar: 10, V: 0.1, Recall: 0.8,
}

const (
	hotInstances = 256
	coldBatch    = 8
	jobInstances = 16
	// jobTableCap is chainserve's job retention bound; setup fills the
	// table to it so evictions and compactions are steady while timing.
	jobTableCap = 512
)

func newWorkload(name string, seed uint64) (*workloadGen, error) {
	w := &workloadGen{name: name, rng: rand.New(rand.NewPCG(seed, 0x6c6564676572)), seed: seed, setupReps: 9,
		firstBody: map[int][]byte{}}
	switch name {
	case "plan-hot":
		w.conns = 1
		for i := 0; i < hotInstances; i++ {
			alg := core.Algorithms()[i%3]
			hi := 50
			if alg == core.AlgADMV {
				hi = 20
			}
			w.insts = append(w.insts, instance{
				Alg: alg, Plat: tablePlatforms[(i/3)%4], Pattern: workload.Patterns()[(i/12)%3],
				N: 10 + w.rng.IntN(hi-9), Total: 10000 + float64(i)*64 + float64(w.rng.IntN(64)),
			})
		}
		w.primed = len(w.insts)
	case "plan-cold":
		w.conns = 1
		for i := range w.phase {
			w.phase[i] = w.rng.Float64()
		}
	case "jobs-durable":
		w.conns = 2
		w.setupReps = 3 // each set-up runs 512 durable jobs
		// Sizes spread evenly over [24,60] and patterns in rotation, so
		// the mix of job costs is the same for every seed.
		for i := 0; i < jobInstances; i++ {
			alg := core.AlgADMVStar
			if i%2 == 1 {
				alg = core.AlgADV
			}
			spec := platformL
			w.insts = append(w.insts, instance{
				Alg: alg, Spec: &spec, Pattern: workload.Patterns()[i%3],
				N: 24 + (i*7%jobInstances)*36/(jobInstances-1), Total: 4000 + float64(i)*100 + float64(w.rng.IntN(100)),
			})
		}
		w.primed = len(w.insts)
	default:
		return nil, fmt.Errorf("unknown workload %q (want plan-hot, plan-cold or jobs-durable)", name)
	}
	return w, nil
}

// coldSizes is each algorithm's size range in plan-cold, in
// core.Algorithms order (ADV*, ADMV*, ADMV).
var coldSizes = [3][2]int{{60, 160}, {30, 70}, {10, 22}}

// coldInstance appends one never-seen instance: its total is unique
// within the run (the integer part is the instance's sequence number).
// Algorithms rotate and each one's sizes follow a golden-ratio sequence,
// so every seed sees the same even spread of solve costs.
func (w *workloadGen) coldInstance() int {
	a := w.coldSeq % 3
	k := w.coldSeq / 3
	w.coldSeq++
	lo, hi := coldSizes[a][0], coldSizes[a][1]
	frac := math.Mod(w.phase[a]+float64(k)*0.6180339887498949, 1)
	w.insts = append(w.insts, instance{
		Alg: core.Algorithms()[a], Plat: tablePlatforms[w.rng.IntN(4)], Pattern: workload.Patterns()[w.rng.IntN(3)],
		N: lo + int(frac*float64(hi-lo+1)), Total: 20000 + float64(len(w.insts)) + w.rng.Float64()/2,
	})
	return len(w.insts) - 1
}

// nextJob draws one job: a primed instance, a unique seed, and one job
// in four adaptive under 4x misspecified true rates.
func (w *workloadGen) nextJob() jobSpec {
	w.jobSeq++
	js := jobSpec{Inst: w.rng.IntN(jobInstances), Seed: w.seed<<24 | w.jobSeq, Scale: 1}
	if w.jobSeq%4 == 0 {
		js.Adaptive, js.Scale = true, 4
	}
	return js
}

// next draws the workload's next op. Not safe for concurrent use.
func (w *workloadGen) next() op {
	switch w.name {
	case "plan-hot":
		return op{Insts: []int{w.rng.IntN(hotInstances)}}
	case "plan-cold":
		o := op{Insts: make([]int, coldBatch)}
		for i := range o.Insts {
			o.Insts[i] = w.coldInstance()
		}
		return o
	default:
		return op{Job: w.nextJob()}
	}
}
