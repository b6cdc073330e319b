// Command anonradiod is the election server daemon: it serves the sharded
// election service of internal/service over the HTTP/JSON API of
// internal/server (register, elect, batch elect, evict, stats, health).
//
// The daemon owns the registry lifecycle around the network layer:
//
//   - with -wal-dir it runs durably: every acknowledged admission and
//     eviction is journaled before the call returns (fsync policy per
//     -wal-sync), a background checkpoint truncates the journal, and a
//     restart replays checkpoint + journal by loading their artifacts —
//     crash recovery included (torn or corrupt records are truncated or
//     skipped and reported, never a refused boot);
//   - with -restore-on-boot it re-admits a snapshot directory by loading
//     its artifacts before the listener opens, so a cold restart skips
//     reclassifying the fleet (a durable daemon boots from its journal
//     instead, and refuses the two flags together);
//   - on SIGINT/SIGTERM it shuts the listener down gracefully (in-flight
//     requests complete, bounded by -shutdown-timeout) and, with
//     -snapshot-on-shutdown, persists the then-quiescent registry.
//
// Snapshots, checkpoints and journal records are written as binary wire
// frames; directories an older release wrote in JSON still restore and
// replay unchanged.
//
// Usage:
//
//	anonradiod [-listen :8080] [-shards N] [-builders N]
//	           [-admission-queue N] [-snapshot-dir DIR]
//	           [-restore-on-boot] [-snapshot-on-shutdown]
//	           [-shutdown-timeout 10s] [-wal-dir DIR]
//	           [-wal-sync always|batch|off] [-checkpoint-every 1m]
//	           [-checkpoint-records N] [-max-batch N] [-fault-drop P]
//	           [-fault-noise P] [-fault-seed N]
//	           [-fault-outages node:from:to,...]
//
// A minimal session against a running daemon:
//
//	anonradiod -listen 127.0.0.1:8080 &
//	curl -s 127.0.0.1:8080/healthz
//	jq -n --rawfile c cfg.txt '{key:"demo", config:$c}' |
//	    curl -s -X POST --data-binary @- 127.0.0.1:8080/v1/register
//	curl -s -X POST -d '{"key":"demo"}' 127.0.0.1:8080/v1/elect
//
// See docs/SERVER.md for the full API reference and operations guide.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"anonradio/internal/radio"
	"anonradio/internal/server"
	"anonradio/internal/service"
	"anonradio/internal/wal"
)

// buildFaultPlan assembles the -fault-* flags into a radio fault plan; a
// nil plan (all flags zero) is the clean medium.
func buildFaultPlan(seed uint64, drop, noise float64, outages string) (*radio.FaultPlan, error) {
	if drop < 0 || drop > 1 {
		return nil, fmt.Errorf("-fault-drop %g outside [0, 1]", drop)
	}
	if noise < 0 || noise > 1 {
		return nil, fmt.Errorf("-fault-noise %g outside [0, 1]", noise)
	}
	plan := &radio.FaultPlan{Seed: seed, Drop: drop, Noise: noise}
	if outages != "" {
		for _, spec := range strings.Split(outages, ",") {
			parts := strings.Split(spec, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("-fault-outages: %q is not a node:from:to triple", spec)
			}
			var o radio.Outage
			var err error
			if o.Node, err = strconv.Atoi(parts[0]); err != nil {
				return nil, fmt.Errorf("-fault-outages: node in %q: %v", spec, err)
			}
			if o.From, err = strconv.Atoi(parts[1]); err != nil {
				return nil, fmt.Errorf("-fault-outages: from in %q: %v", spec, err)
			}
			if o.To, err = strconv.Atoi(parts[2]); err != nil {
				return nil, fmt.Errorf("-fault-outages: to in %q: %v", spec, err)
			}
			if o.Node < 0 || o.From < 0 || o.To <= o.From {
				return nil, fmt.Errorf("-fault-outages: %q needs node >= 0, from >= 0, to > from", spec)
			}
			plan.Outages = append(plan.Outages, o)
		}
	}
	if plan.Empty() {
		return nil, nil
	}
	return plan, nil
}

func main() { os.Exit(run()) }

// run is main with an exit code: the registry teardown must happen before
// the process exits even on degraded paths, which os.Exit-in-main would
// skip past.
func run() int {
	var (
		listen          = flag.String("listen", ":8080", "listen address")
		shards          = flag.Int("shards", 0, "worker-owned shards (0 = GOMAXPROCS)")
		buildersN       = flag.Int("builders", 0, "admission builder goroutines; builds run here, off the serve path (0 = GOMAXPROCS)")
		admissionQueue  = flag.Int("admission-queue", 0, "bounded admission queue ahead of the builders; a full queue answers 429 (0 = default 256)")
		snapshotDir     = flag.String("snapshot-dir", "", "snapshot directory for -restore-on-boot / -snapshot-on-shutdown")
		restoreOnBoot   = flag.Bool("restore-on-boot", false, "restore -snapshot-dir before the listener opens (missing manifest is not an error; the daemon starts empty); not with -wal-dir")
		snapOnShutdown  = flag.Bool("snapshot-on-shutdown", false, "snapshot the registry into -snapshot-dir after the graceful shutdown")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "how long a graceful shutdown may wait for in-flight requests")
		maxBatch        = flag.Int("max-batch", 0, "largest accepted /v1/elect/batch key count (0 = default 8192)")
		walDir          = flag.String("wal-dir", "", "admission journal directory; enables durability (replay on boot, journal on admit/evict, background checkpoints)")
		walSync         = flag.String("wal-sync", "always", "journal fsync policy: always (fsync before acknowledging), batch (group fsync on a short timer), off (OS decides)")
		checkpointEvery = flag.Duration("checkpoint-every", time.Minute, "background checkpoint interval: snapshot the registry and truncate the journal (0 disables the timer)")
		checkpointRecs  = flag.Int64("checkpoint-records", 0, "checkpoint once this many journal records accumulate since the last one (0 = automatic pacing proportional to the registry size; negative disables the count trigger)")
		faultDrop       = flag.Float64("fault-drop", 0, "per-delivery message-drop probability injected into every served election, in [0,1] (robustness experiments; 0 = the paper's clean medium)")
		faultNoise      = flag.Float64("fault-noise", 0, "per-node-per-round spurious-collision probability injected into every served election, in [0,1]")
		faultSeed       = flag.Uint64("fault-seed", 0, "seed keying the injected faults; the same seed replays identical faults")
		faultOutages    = flag.String("fault-outages", "", "per-node radio-off windows injected into every served election, as comma-separated node:from:to global-round triples (e.g. 0:2:5,3:0:10)")
	)
	flag.Parse()
	log.SetPrefix("anonradiod: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	if (*restoreOnBoot || *snapOnShutdown) && *snapshotDir == "" {
		log.Print("-restore-on-boot and -snapshot-on-shutdown require -snapshot-dir")
		return 2
	}
	if *restoreOnBoot && *walDir != "" {
		// The snapshot would be restored over the replayed journal, reverting
		// every acknowledged mutation made since it was taken.
		log.Print("-restore-on-boot cannot be combined with -wal-dir: a durable daemon boots from its journal")
		return 2
	}

	fault, err := buildFaultPlan(*faultSeed, *faultDrop, *faultNoise, *faultOutages)
	if err != nil {
		log.Printf("fault flags: %v", err)
		return 2
	}
	opts := service.Options{
		Shards:         *shards,
		Builders:       *buildersN,
		AdmissionQueue: *admissionQueue,
		Fault:          fault,
	}
	if fault != nil {
		log.Printf("serving over a faulted medium: seed=%d drop=%g noise=%g outages=%d (every election runs the fault plan)",
			fault.Seed, fault.Drop, fault.Noise, len(fault.Outages))
	}
	var reg *service.Registry
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Printf("-wal-sync: %v", err)
			return 2
		}
		start := time.Now()
		opts.WAL = service.WALOptions{Dir: *walDir, Sync: policy, CheckpointEvery: *checkpointEvery, CheckpointRecords: *checkpointRecs}
		var report *service.RecoveryReport
		reg, report, err = service.Open(opts)
		if err != nil {
			log.Printf("opening durable registry at %s: %v", *walDir, err)
			return 1
		}
		log.Printf("recovered %s in %s: checkpoint %d entries, journal %d admits / %d evicts / %d compacted across %d segments (sync=%s, checkpoint every %s)",
			*walDir, time.Since(start).Round(time.Millisecond),
			report.Checkpoint.Entries, report.Admits, report.Evicts, report.Compacted,
			report.Journal.Segments, policy, *checkpointEvery)
		if !report.Clean() {
			for _, f := range report.Journal.Faults {
				log.Printf("recovery: journal damage in %s at offset %d: %s", f.Segment, f.Offset, f.Reason)
			}
			for _, s := range report.Checkpoint.Skipped {
				log.Printf("recovery: checkpoint entry %q skipped: %s", s.Key, s.Reason)
			}
			for _, s := range report.Skipped {
				log.Printf("recovery: journal record %d (%s %q) skipped: %s", s.Index, s.Op, s.Key, s.Reason)
			}
			log.Printf("recovery: booted degraded — %d journal faults, %d checkpoint entries and %d records skipped (acknowledged-but-damaged state is lost; see docs/SERVER.md#durability)",
				len(report.Journal.Faults), len(report.Checkpoint.Skipped), len(report.Skipped))
		}
	} else {
		reg = service.New(opts)
	}
	defer reg.Close()

	if *restoreOnBoot {
		start := time.Now()
		report, err := server.LoadSnapshot(reg, *snapshotDir)
		switch {
		case err != nil && errors.Is(err, os.ErrNotExist):
			log.Printf("no snapshot at %s; starting empty", *snapshotDir)
		case err != nil:
			log.Printf("restoring %s: %v", *snapshotDir, err)
			return 1
		default:
			log.Printf("restored %d configurations from %s in %s",
				report.Entries, *snapshotDir, time.Since(start).Round(time.Millisecond))
			for _, s := range report.Skipped {
				log.Printf("restore: entry %q skipped: %s", s.Key, s.Reason)
			}
		}
	}

	srv := server.New(reg, server.Options{MaxBatchKeys: *maxBatch})
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(*listen) }()
	ast := reg.AdmissionStats()
	log.Printf("serving on %s (%d shards, %d builders, admission queue %d)",
		*listen, reg.Shards(), ast.Builders, ast.QueueCapacity)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		log.Printf("received %s; draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			log.Printf("shutdown: %v (continuing)", err)
		}
		if err := <-done; err != nil && err != http.ErrServerClosed {
			log.Printf("serve: %v", err)
		}
	case err := <-done:
		// The listener died on its own (port in use, ...): nothing to drain.
		log.Printf("serve: %v", err)
		return 1
	}

	// The drain already happened, so a failed shutdown snapshot must not
	// abort the teardown: log it, finish the lifecycle (final checkpoint,
	// registry close, stats), and report the failure in the exit code. A
	// durable daemon already has the state journaled anyway.
	exit := 0
	if *snapOnShutdown {
		start := time.Now()
		manifest, err := reg.Snapshot(*snapshotDir)
		if err != nil {
			log.Printf("snapshotting to %s failed: %v (registry state is NOT in %s; exiting nonzero after teardown)",
				*snapshotDir, err, *snapshotDir)
			exit = 1
		} else {
			log.Printf("snapshotted %d configurations to %s in %s",
				len(manifest.Entries), *snapshotDir, time.Since(start).Round(time.Millisecond))
		}
	}
	if *walDir != "" {
		// One final checkpoint so the next boot replays an empty (or tiny)
		// journal; failure is non-fatal for the same reason as above — the
		// journal alone reconstructs the state.
		if err := reg.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v (next boot replays the journal instead)", err)
		}
	}
	stats, err := reg.Stats()
	if err != nil {
		log.Printf("final stats unavailable: %v; bye", err)
		return exit
	}
	total := service.Totals(stats)
	log.Printf("served %d elections (%d failures); bye", total.Elections, total.Failures)
	return exit
}
