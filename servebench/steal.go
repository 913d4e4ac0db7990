package main

import "time"

// The benchmark runs on shared virtual machines whose hypervisor steals
// CPU time in bursts: between runs minutes apart the stolen share of a
// window went from 0% to over 40%. The steal clock in /proc/stat says when
// that happened; the closed-loop peak discounts it, and the open loop
// reports it beside its figures.

const (
	// peakWindow is the width of one closed-loop throughput sample.
	peakWindow = 250 * time.Millisecond
	// stealWindow is the width of one open-loop steal sample.
	stealWindow = 100 * time.Millisecond
)

// stealSample is the host's cumulative steal time at one instant.
type stealSample struct {
	at    time.Time
	steal float64 // seconds, summed over CPUs
}

// sampleSteal records the host steal clock every period until stop is
// closed, and once more then.
func sampleSteal(stop <-chan struct{}, period time.Duration) <-chan []stealSample {
	out := make(chan []stealSample, 1)
	go func() {
		ss := []stealSample{{time.Now(), hostSteal()}}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				ss = append(ss, stealSample{time.Now(), hostSteal()})
			case <-stop:
				out <- append(ss, stealSample{time.Now(), hostSteal()})
				return
			}
		}
	}()
	return out
}

// window is the span between two steal samples and the share of the
// machine's CPU time the hypervisor stole in it.
type window struct {
	from, to time.Time
	stolen   float64
}

// windows turns samples taken every period into windows, dropping the
// short tail after the last tick.
func windows(ss []stealSample, period time.Duration, cpus int) []window {
	var ws []window
	for i := 1; i < len(ss); i++ {
		a, b := ss[i-1], ss[i]
		span := b.at.Sub(a.at).Seconds()
		if span < period.Seconds()/2 {
			continue
		}
		ws = append(ws, window{a.at, b.at, min(0.9, (b.steal-a.steal)/(span*float64(cpus)))})
	}
	return ws
}

func (w window) holds(t time.Time) bool { return !t.Before(w.from) && t.Before(w.to) }

// peakRate is the median over the closed loop's windows of the verdicts
// completed per second the machine actually ran: each window's count over
// its length minus the CPU time stolen in it.
func peakRate(rs []result, ws []window) float64 {
	var rates []float64
	for _, w := range ws {
		n := 0
		for k := range rs {
			if r := &rs[k]; r.fails == 0 && w.holds(r.done) {
				n += r.j.verdicts()
			}
		}
		rates = append(rates, float64(n)/(w.to.Sub(w.from).Seconds()*(1-w.stolen)))
	}
	if len(rates) == 0 {
		return 0
	}
	return median(rates)
}
