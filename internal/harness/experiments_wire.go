package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"anonradio/internal/config"
	"anonradio/internal/server"
	"anonradio/internal/service"
	"anonradio/internal/wire"
)

// E16WireEncoding measures what the binary wire encoding buys over JSON on
// the same routes: a mixed clique/path election workload is served over
// loopback HTTP twice — once as JSON bodies, once as binary frames
// (application/x-anonradio-bin), single elects and batches — against one
// shared registry, with every outcome checked against the in-process
// reference for its key. The table reports per-election cost and the
// slowdown versus in-process ElectBatch; a note carries the at-rest half
// (the fleet's snapshot artifact bytes). The benchmarks behind the CI
// numbers are BenchmarkWireServedElect / BenchmarkJSONServedElect
// (internal/server) and the Binary* snapshot and WAL benchmarks
// (internal/service).
func E16WireEncoding(opts Options) (*Table, error) {
	nCfgs, size, elections := 8, 16, 2000
	batchSizes := []int{1, 64}
	if opts.Quick {
		nCfgs, size, elections = 4, 10, 200
		batchSizes = []int{1, 8}
	}

	reg := service.New(service.Options{})
	defer reg.Close()
	keys := make([]string, nCfgs)
	cfgs := make([]*config.Config, nCfgs)
	for i := range keys {
		keys[i] = fmt.Sprintf("cfg-%d", i)
		if i%2 == 0 {
			cfgs[i] = config.StaggeredClique(size + i)
		} else {
			cfgs[i] = config.StaggeredPath(size+i, 1)
		}
		if err := reg.Register(keys[i], cfgs[i]); err != nil {
			return nil, fmt.Errorf("E16 register %s: %w", keys[i], err)
		}
	}

	// In-process reference outcomes (also the warm-up) and baseline timing.
	outs, err := reg.ElectBatch(keys, nil)
	if err != nil {
		return nil, fmt.Errorf("E16 warm-up: %w", err)
	}
	leaders := make([]int, nCfgs)
	rounds := make([]int, nCfgs)
	for i, o := range outs {
		leaders[i], rounds[i] = o.Leader, o.Rounds
	}
	workload := make([]string, 0, elections)
	for len(workload) < elections {
		workload = append(workload, keys[len(workload)%nCfgs])
	}
	start := time.Now()
	for done := 0; done < elections; done += nCfgs {
		if outs, err = reg.ElectBatch(keys, outs); err != nil {
			return nil, fmt.Errorf("E16 in-process serve: %w", err)
		}
	}
	inProcess := time.Since(start)
	inProcessPer := inProcess / time.Duration(elections)

	srv := server.New(reg, server.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("E16 listen: %w", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-serveDone
	}()
	base := "http://" + l.Addr().String()
	client := &http.Client{}

	check := func(key string, leader, round int) bool {
		for i, k := range keys {
			if k == key {
				return leader == leaders[i] && round == rounds[i]
			}
		}
		return false
	}

	table := NewTable("E16: wire encoding cost (binary frames vs JSON on the same routes)",
		"encoding", "batch", "elections", "total time", "per-elect", "vs in-process", "agree")
	table.AddRow("in-process", fmt.Sprintf("%d", nCfgs), fmt.Sprintf("%d", elections),
		inProcess.Round(time.Millisecond).String(), inProcessPer.Round(100*time.Nanosecond).String(), "1.00x", "true")

	// One elect (or batch chunk) over the chosen encoding; returns whether
	// every outcome agreed with the in-process reference.
	serveJSON := func(chunk []string) (bool, error) {
		if len(chunk) == 1 {
			body, _ := json.Marshal(server.ElectRequest{Key: chunk[0]})
			resp, err := client.Post(base+"/v1/elect", "application/json", bytes.NewReader(body))
			if err != nil {
				return false, err
			}
			var out server.Outcome
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				return false, err
			}
			return out.Elected && check(out.Key, out.Leader, out.Rounds), nil
		}
		body, _ := json.Marshal(server.BatchRequest{Keys: chunk})
		resp, err := client.Post(base+"/v1/elect/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		var out server.BatchResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return false, err
		}
		agree := out.Failures == 0 && len(out.Outcomes) == len(chunk)
		for _, o := range out.Outcomes {
			if !o.Elected || !check(o.Key, o.Leader, o.Rounds) {
				agree = false
			}
		}
		return agree, nil
	}
	var frame []byte // reused request frame, the way a pooled client would
	serveBinary := func(chunk []string) (bool, error) {
		url, want := base+"/v1/elect", wire.FrameOutcome
		if len(chunk) == 1 {
			frame = wire.AppendElectRequestFrame(frame[:0], &wire.ElectRequest{Key: chunk[0]})
		} else {
			frame = wire.AppendBatchRequestFrame(frame[:0], &wire.BatchRequest{Keys: chunk})
			url, want = base+"/v1/elect/batch", wire.FrameBatchResponse
		}
		resp, err := client.Post(url, server.ContentTypeBinary, bytes.NewReader(frame))
		if err != nil {
			return false, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return false, err
		}
		typ, payload, _, err := wire.DecodeFrame(body)
		if err != nil || typ != want {
			return false, fmt.Errorf("response frame %v (%v), want %v", typ, err, want)
		}
		if len(chunk) == 1 {
			var out wire.Outcome
			if err := out.DecodeFrom(payload); err != nil {
				return false, err
			}
			return out.Elected && check(out.Key, out.Leader, out.Rounds), nil
		}
		var out wire.BatchResponse
		if err := out.DecodeFrom(payload); err != nil {
			return false, err
		}
		agree := out.Failures == 0 && len(out.Outcomes) == len(chunk)
		for _, o := range out.Outcomes {
			if !o.Elected || !check(o.Key, o.Leader, o.Rounds) {
				agree = false
			}
		}
		return agree, nil
	}

	for _, enc := range []struct {
		name  string
		serve func([]string) (bool, error)
	}{{"JSON", serveJSON}, {"binary", serveBinary}} {
		for _, batch := range batchSizes {
			agree := true
			served := 0
			start := time.Now()
			for done := 0; done < elections; done += batch {
				chunk := batch
				if rest := elections - done; rest < chunk {
					chunk = rest
				}
				ok, err := enc.serve(workload[done : done+chunk])
				if err != nil {
					return nil, fmt.Errorf("E16 %s batch=%d: %w", enc.name, batch, err)
				}
				agree = agree && ok
				served += chunk
			}
			elapsed := time.Since(start)
			per := elapsed / time.Duration(served)
			table.AddRow(
				enc.name, fmt.Sprintf("%d", batch), fmt.Sprintf("%d", served),
				elapsed.Round(time.Millisecond).String(),
				per.Round(100*time.Nanosecond).String(),
				fmt.Sprintf("%.2fx", float64(per)/float64(inProcessPer)),
				fmt.Sprintf("%v", agree),
			)
			if !agree {
				return nil, fmt.Errorf("E16: %s outcomes diverged from in-process at batch=%d", enc.name, batch)
			}
		}
	}

	// The at-rest half: snapshot the same fleet and count artifact bytes.
	snapDir, err := os.MkdirTemp("", "anonradio-e16-")
	if err != nil {
		return nil, fmt.Errorf("E16 snapshot: %w", err)
	}
	defer os.RemoveAll(snapDir)
	m, err := reg.Snapshot(snapDir)
	if err != nil {
		return nil, fmt.Errorf("E16 snapshot: %w", err)
	}
	var snapBytes int64
	for _, e := range m.Entries {
		fi, err := os.Stat(filepath.Join(snapDir, e.ArtifactFile))
		if err != nil {
			return nil, fmt.Errorf("E16 snapshot: %w", err)
		}
		snapBytes += fi.Size()
	}

	table.AddNote("one loopback HTTP connection (keep-alive); both encodings hit the same routes and the same registry")
	table.AddNote("agreement: every served outcome matched the in-process leader and round count, across both encodings")
	table.AddNote("snapshot artifacts for the same %d-config fleet: %d bytes of binary frames", nCfgs, snapBytes)
	table.AddNote("journal records use the same frames; see BenchmarkBinaryWALAdmit for the append cost")
	return table, nil
}
