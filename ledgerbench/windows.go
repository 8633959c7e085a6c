package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// sample is one reading of the server's CPU time and the machine's CPU
// tick counters.
type sample struct {
	cpu          time.Duration
	total, steal int64
}

func takeSample(s *server) (sample, error) {
	st, err := s.stat()
	if err != nil {
		return sample{}, err
	}
	total, steal, err := hostCPU()
	return sample{st.cpu(), total, steal}, err
}

// sampleEverySecond takes a sample at the start of the timed phase and
// every second after it until stop is closed, then once more. Sample k
// is taken about k seconds in.
func sampleEverySecond(s *server, stop <-chan struct{}) []sample {
	var out []sample
	read := func() {
		if smp, err := takeSample(s); err == nil {
			out = append(out, smp)
		}
	}
	read()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			read()
			return out
		case <-t.C:
			read()
		}
	}
}

// window summarises one second of the timed phase: the ops that
// completed in it, the server's CPU time and the share of the machine's
// CPU time the hypervisor stole. A run's windows show whether its
// numbers drifted while it ran, and whether the host was the cause.
type window struct {
	Ops         int     `json:"ops"`
	P50         float64 `json:"p50_ms"`
	ServerCPUms float64 `json:"server_cpu_ms"`
	StealPct    float64 `json:"steal_pct"`
}

// windows cuts the timed phase that began at start into one-second
// windows.
func windows(results []opResult, start time.Time, smp []sample) []window {
	lats := make([][]float64, max(len(smp)-1, 0))
	for _, r := range results {
		if k := int(r.Began.Add(r.Latency).Sub(start) / time.Second); !r.Began.IsZero() && k >= 0 && k < len(lats) {
			lats[k] = append(lats[k], float64(r.Latency)/float64(time.Millisecond))
		}
	}
	out := make([]window, len(lats))
	for k := range out {
		a, b := smp[k], smp[k+1]
		out[k] = window{Ops: len(lats[k]), P50: quantile(lats[k], 0.5),
			ServerCPUms: float64(b.cpu-a.cpu) / float64(time.Millisecond),
			StealPct:    stealPct(a, b)}
	}
	return out
}

// stealPct is the share of the machine's CPU ticks between two samples
// that the hypervisor gave to other guests.
func stealPct(a, b sample) float64 {
	return 100 * ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// hostCPU reads the machine-wide CPU tick counters from /proc/stat:
// the total over all states and the ticks stolen by the hypervisor.
func hostCPU() (total, steal int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// user nice system idle iowait irq softirq steal
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal, nil
}
