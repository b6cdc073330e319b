package harness

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/election"
	"anonradio/internal/service"
)

// E14AdmissionIsolation measures whether elections on a shard stall behind
// a concurrent admission on the same shard. One single-shard registry
// serves a hot key while a second goroutine keeps admitting a deliberately
// expensive configuration onto the *same* shard; the admission pipeline
// runs the build on a builder goroutine, and the shard only sees an O(1)
// install. The table reports the election latency distribution under
// admissions against an idle baseline: the pipeline keeps the tail at the
// baseline.
func E14AdmissionIsolation(opts Options) (*Table, error) {
	hot := config.StaggeredClique(16)
	big := config.StaggeredPath(64, 100) // span 6300: a deliberately expensive build (~100ms class)
	dur := 2 * time.Second
	if opts.Quick {
		big = config.StaggeredPath(24, 40) // span 920: a few milliseconds per build
		dur = 250 * time.Millisecond
	}

	// The cost being hidden: one direct build of the expensive configuration.
	buildStart := time.Now()
	if _, err := election.BuildDedicated(big); err != nil {
		return nil, fmt.Errorf("E14 reference build: %w", err)
	}
	buildTime := time.Since(buildStart)

	type row struct {
		mode       string
		elections  int
		admissions int
		p50        time.Duration
		p999       time.Duration
		max        time.Duration
		stalled    float64 // share of the window spent inside >1ms elections
	}

	measure := func(mode string, admitting bool) (row, error) {
		reg := service.New(service.Options{Shards: 1, Builders: 1})
		defer reg.Close()
		if err := reg.Register("hot", hot); err != nil {
			return row{}, fmt.Errorf("E14 register hot: %w", err)
		}
		warm, err := reg.Elect("hot")
		if err != nil || !warm.Elected() {
			return row{}, fmt.Errorf("E14 warm-up: %+v %v", warm, err)
		}
		var (
			stop       atomic.Bool
			admitWG    sync.WaitGroup
			admissions int
		)
		if admitting {
			admitWG.Add(1)
			go func() {
				defer admitWG.Done()
				for i := 0; !stop.Load(); i++ {
					if err := reg.Register(fmt.Sprintf("big-%d", i), big); err != nil {
						return
					}
					admissions++
				}
			}()
		}
		lat := make([]time.Duration, 0, 4096)
		deadline := time.Now().Add(dur)
		for time.Now().Before(deadline) {
			start := time.Now()
			out, err := reg.Elect("hot")
			if err != nil || !out.Elected() || out.Leader != warm.Leader || out.Rounds != warm.Rounds {
				stop.Store(true)
				admitWG.Wait()
				return row{}, fmt.Errorf("E14 elect (%s): %+v %v, want leader %d", mode, out, err, warm.Leader)
			}
			lat = append(lat, time.Since(start))
		}
		stop.Store(true)
		admitWG.Wait()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		var stallTime time.Duration
		for _, d := range lat {
			if d > time.Millisecond {
				stallTime += d
			}
		}
		pct := func(p float64) time.Duration { return lat[min(len(lat)-1, int(float64(len(lat))*p))] }
		return row{
			mode:       mode,
			elections:  len(lat),
			admissions: admissions,
			p50:        pct(0.50),
			p999:       pct(0.999),
			max:        lat[len(lat)-1],
			stalled:    float64(stallTime) / float64(dur),
		}, nil
	}

	rows := []struct {
		mode      string
		admitting bool
	}{
		{"idle baseline", false},
		{"pipeline", true},
	}
	table := NewTable("E14: Election latency on a shard during admissions on the same shard",
		"mode", "elections", "admissions", "p50", "p99.9", "max", "stall share")
	for _, rc := range rows {
		r, err := measure(rc.mode, rc.admitting)
		if err != nil {
			return nil, err
		}
		table.AddRow(
			r.mode,
			fmt.Sprintf("%d", r.elections),
			fmt.Sprintf("%d", r.admissions),
			r.p50.Round(time.Microsecond).String(),
			r.p999.Round(time.Microsecond).String(),
			r.max.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", 100*r.stalled),
		)
	}
	table.AddNote("one shard, one builder, one closed-loop elect client; the admitted configuration builds in ~%s (cold) and always lands on the serving shard",
		buildTime.Round(time.Millisecond))
	table.AddNote("stall share: time the elect client spent inside >1ms elections, as a fraction of the window — a queued-behind-a-build election holds the client for the whole build")
	table.AddNote("the pipeline never queues an election behind a build (on a single-core host the remaining tail is scheduler time-slicing against the builder, not queueing)")
	return table, nil
}
