package main

import (
	"math"
	"time"
)

// The measured phase is cut into windows of about a second. Each window
// knows its latency samples, its completed work, the process CPU time it
// used and the host's steal share, so a metric can be taken per window and
// summarized across windows.

// tick is one sample of the phase clock, process CPU time and host ticks.
type tick struct {
	at           int64 // ns since the phase began
	cpu          time.Duration
	steal, total uint64
}

func takeTick(epoch time.Time) tick {
	s, t, _ := hostTicks()
	return tick{at: int64(time.Since(epoch)), cpu: cpuTime(), steal: s, total: t}
}

// ticker takes a tick every interval until stopped.
type ticker struct {
	epoch time.Time
	stopc chan struct{}
	done  chan struct{}
	ticks []tick
}

func startTicker(epoch time.Time, every time.Duration) *ticker {
	tk := &ticker{epoch: epoch, stopc: make(chan struct{}), done: make(chan struct{}), ticks: []tick{takeTick(epoch)}}
	go func() {
		defer close(tk.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-tk.stopc:
				return
			case <-t.C:
				tk.ticks = append(tk.ticks, takeTick(tk.epoch))
			}
		}
	}()
	return tk
}

// stop ends the ticker with a final tick and returns every tick.
func (tk *ticker) stop() []tick {
	close(tk.stopc)
	<-tk.done
	return append(tk.ticks, takeTick(tk.epoch))
}

// windowStat is one window's figures.
type windowStat struct {
	lat   latencies
	n     int     // latency samples
	work  float64 // work completed (elections or registrations)
	cpu   time.Duration
	steal float64
}

// cut assigns the series' samples to the windows between consecutive
// ticks, merging ticks so that each window expects at least minSamples;
// work is the work one sample stands for. Windows with under half of
// minSamples are dropped; a phase too short for any window is one window.
func cut(s *series, ticks []tick, minSamples int, work float64) []windowStat {
	if ws := windows(s, ticks, minSamples, work); len(ws) > 0 || len(s.ns) == 0 || len(ticks) < 2 {
		return ws
	}
	return []windowStat{between(ticks[0], ticks[len(ticks)-1], s.ns, work*float64(len(s.ns)))}
}

func windows(s *series, ticks []tick, minSamples int, work float64) []windowStat {
	if len(ticks) < 2 || len(s.at) == 0 {
		return nil
	}
	span := float64(ticks[len(ticks)-1].at-ticks[0].at) / 1e9
	perTick := float64(len(s.at)) / max(span, 1e-9) * float64(ticks[1].at-ticks[0].at) / 1e9
	k := max(1, int(math.Ceil(float64(minSamples)/max(perTick, 1e-9))))
	var out []windowStat
	j := 0
	for i := 0; i+k < len(ticks); i += k {
		a, b := ticks[i], ticks[i+k]
		var lat []int64
		for j < len(s.at) && s.at[j] < b.at {
			if s.at[j] >= a.at {
				lat = append(lat, s.ns[j])
			}
			j++
		}
		if len(lat) < minSamples/2 {
			continue
		}
		w := windowStat{lat: summarize(lat), n: len(lat), work: work * float64(len(lat)), cpu: b.cpu - a.cpu, steal: -1}
		if b.total > a.total {
			w.steal = float64(b.steal-a.steal) / float64(b.total-a.total)
		}
		out = append(out, w)
	}
	return out
}

// acrossWindows is the median over windows of one figure per window.
func acrossWindows(ws []windowStat, value func(windowStat) float64) float64 {
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = value(w)
	}
	return median(vals)
}

// between is the window between two ticks holding the given latencies and the
// given amount of completed work.
func between(a, b tick, lat []int64, work float64) windowStat {
	w := windowStat{n: len(lat), work: work, cpu: b.cpu - a.cpu, steal: -1}
	if len(lat) > 0 {
		w.lat = summarize(lat)
	}
	if b.total > a.total {
		w.steal = float64(b.steal-a.steal) / float64(b.total-a.total)
	}
	return w
}
