package core

import (
	"fmt"

	"chainckpt/internal/schedule"
)

// reconstruct walks the argmin tables back from Edisk(n) and materializes
// the optimal schedule. The guaranteed-verification and partial-
// verification argmins are recomputed on demand for the chosen (d1,m1)
// pairs only, which keeps the forward pass at O(n^2) memory.
func (s *solver) reconstruct(kFinal int, diskPrev [][]int, memPrevAll [][]int, ememAll [][]float64) (*schedule.Schedule, error) {
	n := s.n
	sched, err := schedule.New(n)
	if err != nil {
		return nil, err
	}

	dp := s.sc.ensureDP(n)

	// Disk checkpoint positions, in increasing order, walking the
	// (position, checkpoints-used) argmin chain back from (n, kFinal).
	disks := dp.posD[:0]
	for d, k := n, kFinal; d != 0; k-- {
		if d < 0 || k < 1 {
			return nil, fmt.Errorf("core: broken disk argmin chain at (%d, %d)", d, k)
		}
		disks = append(disks, d)
		d = diskPrev[k][d]
	}
	reverseInts(disks)

	var sc *partialScratch
	if s.alg == AlgADMV {
		sc = s.sc.reconPartial()
	}
	row := dp.row[: n+1 : n+1]
	arg := dp.arg[: n+1 : n+1]

	d1 := 0
	for _, d2 := range disks {
		sched.Set(d2, schedule.Disk)

		// Memory checkpoint positions in (d1, d2], increasing.
		mems := dp.posM[:0]
		for m := d2; m != d1; m = memPrevAll[d1][m] {
			if m < d1 {
				return nil, fmt.Errorf("core: broken memory argmin chain at %d (disk %d)", m, d1)
			}
			mems = append(mems, m)
		}
		reverseInts(mems)

		m1 := d1
		for _, m2 := range mems {
			if m2 != d2 {
				sched.Add(m2, schedule.Memory)
			}

			// Guaranteed verification positions in (m1, m2], increasing.
			s.verifRow(d1, m1, ememAll[d1][m1], sc, row, arg)
			verifs := dp.posV[:0]
			for v := m2; v != m1; v = arg[v] {
				if v < m1 {
					return nil, fmt.Errorf("core: broken verification argmin chain at %d (mem %d)", v, m1)
				}
				verifs = append(verifs, v)
			}
			reverseInts(verifs)

			v1 := m1
			for _, v2 := range verifs {
				if v2 != m2 {
					sched.Add(v2, schedule.Guaranteed)
				}
				if s.alg == AlgADMV {
					// Recompute the optimal partial chain for (v1, v2) and
					// mark the interior positions.
					s.epartial(sc, m1, v1, v2, s.rd(d1)+ememAll[d1][m1], row[v1])
					for p := sc.next[v1]; p != v2; p = sc.next[p] {
						if p <= v1 || p > v2 {
							return nil, fmt.Errorf("core: broken partial chain at %d in (%d,%d)", p, v1, v2)
						}
						sched.Add(p, schedule.Partial)
					}
				}
				v1 = v2
			}
			m1 = m2
		}
		d1 = d2
	}

	if err := sched.ValidateComplete(); err != nil {
		return nil, fmt.Errorf("core: reconstructed schedule invalid: %w", err)
	}
	return sched, nil
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
