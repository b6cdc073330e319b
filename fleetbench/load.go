package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anonradio/internal/server"
	"anonradio/internal/wire"
)

// client is one generator goroutine's connection to the router: its own
// transport holds exactly one kept-alive connection.
type client struct {
	hc  *http.Client
	tr  *tracer
	buf bytes.Buffer
}

func newClient(d *dialer, tr *tracer) *client {
	return &client{hc: &http.Client{Transport: d.transport(1)}, tr: tr}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request to the router and returns the status and body; the
// body aliases the client's buffer until the next call. ref identifies the
// request in the trace (see tracer.clientSpan).
func (c *client) do(method, path, contentType string, body []byte, ref spanRef) (int, []byte, error) {
	return c.send(routerName, method, path, contentType, body, ref)
}

// send is do against any of the fleet's hosts.
func (c *client) send(host, method, path, contentType string, body []byte, ref spanRef) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+host+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	var id uint32
	var start int64
	if c.tr != nil && c.tr.on.Load() {
		id = c.tr.nextID.Add(1)
		req.Header.Set(spanHeader, strconv.FormatUint(uint64(id), 10))
		start = c.tr.now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if id != 0 {
		c.tr.clientSpan(id, start, ref)
	}
	return resp.StatusCode, c.buf.Bytes(), err
}

// checker counts every checked operation and every disagreement with the
// oracle.
type checker struct {
	attempted, failed atomic.Int64
	logged            atomic.Int32
	// elections counts verified elections of set-up and recovery passes.
	elections atomic.Int64
}

// check records one operation; err non-nil marks it failed.
func (k *checker) check(err error) bool {
	k.attempted.Add(1)
	if err == nil {
		return true
	}
	k.failed.Add(1)
	if k.logged.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "fleetbench: check failed: %v\n", err)
	}
	return false
}

// outcomeJSON mirrors the documented JSON outcome of POST /v1/elect.
type outcomeJSON struct {
	Key     string `json:"key"`
	Elected bool   `json:"elected"`
	Leader  int    `json:"leader"`
	Rounds  int    `json:"rounds"`
	Error   string `json:"error"`
}

func (o outcomeJSON) verify(key string, e expect) error {
	if o.Key != key || !o.Elected || o.Error != "" || o.Leader != int(e.leader) || o.Rounds != int(e.rounds) {
		return fmt.Errorf("key %s: got %+v, want leader %d in %d rounds", key, o, e.leader, e.rounds)
	}
	return nil
}

func verifyElectJSON(status int, body []byte, key string, e expect) error {
	if status != http.StatusOK {
		return fmt.Errorf("elect %s: status %d: %s", key, status, body)
	}
	var o outcomeJSON
	if err := json.Unmarshal(body, &o); err != nil {
		return fmt.Errorf("elect %s: %v", key, err)
	}
	return o.verify(key, e)
}

func wireOutcome(o *wire.Outcome) outcomeJSON {
	return outcomeJSON{Key: o.Key, Elected: o.Elected, Leader: o.Leader, Rounds: o.Rounds, Error: o.Error}
}

func verifyElectBin(status int, body []byte, key string, e expect) error {
	typ, payload, _, err := wire.DecodeFrame(body)
	if err != nil || status != http.StatusOK || typ != wire.FrameOutcome {
		return fmt.Errorf("elect %s: status %d, frame %v: %v", key, status, typ, err)
	}
	var o wire.Outcome
	if err := o.DecodeFrom(payload); err != nil {
		return fmt.Errorf("elect %s: %v", key, err)
	}
	return wireOutcome(&o).verify(key, e)
}

func verifyBatch(in *inputs, batch []int, outs []outcomeJSON, failures int) error {
	if len(outs) != len(batch) || failures != 0 {
		return fmt.Errorf("batch: %d outcomes for %d keys, %d failures", len(outs), len(batch), failures)
	}
	for i, k := range batch {
		if err := outs[i].verify(in.stable[k].key, in.stable[k].exp); err != nil {
			return fmt.Errorf("batch slot %d: %w", i, err)
		}
	}
	return nil
}

func verifyBatchJSON(in *inputs, status int, body []byte, batch []int) error {
	if status != http.StatusOK {
		return fmt.Errorf("batch: status %d: %s", status, body)
	}
	var r struct {
		Outcomes []outcomeJSON `json:"outcomes"`
		Failures int           `json:"failures"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("batch: %v", err)
	}
	return verifyBatch(in, batch, r.Outcomes, r.Failures)
}

func verifyBatchBin(in *inputs, status int, body []byte, batch []int, decoded *wire.BatchResponse) error {
	typ, payload, _, err := wire.DecodeFrame(body)
	if err != nil || status != http.StatusOK || typ != wire.FrameBatchResponse {
		return fmt.Errorf("batch: status %d, frame %v: %v", status, typ, err)
	}
	if err := decoded.DecodeFrom(payload); err != nil {
		return fmt.Errorf("batch: %v", err)
	}
	outs := make([]outcomeJSON, len(decoded.Outcomes))
	for i := range decoded.Outcomes {
		outs[i] = wireOutcome(&decoded.Outcomes[i])
	}
	return verifyBatch(in, batch, outs, decoded.Failures)
}

// verifyRegister checks a registration answer: 200 "admitted" for a
// feasible configuration, 422 for an infeasible one.
func verifyRegister(status int, body []byte, key string, e expect) error {
	if !e.feasible {
		if status != http.StatusUnprocessableEntity {
			return fmt.Errorf("register %s: status %d for an infeasible configuration, want 422: %s", key, status, body)
		}
		return nil
	}
	var r struct {
		Key    string `json:"key"`
		Status string `json:"status"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &r) != nil || r.Key != key || r.Status != "admitted" {
		return fmt.Errorf("register %s: status %d: %s", key, status, body)
	}
	return nil
}

func verifyEvict(status int, body []byte, key string) error {
	var r struct {
		Key     string `json:"key"`
		Evicted bool   `json:"evicted"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &r) != nil || r.Key != key || !r.Evicted {
		return fmt.Errorf("evict %s: status %d: %s", key, status, body)
	}
	return nil
}

// task is one verified request of a setup or recovery pass.
type task func(c *client) error

// runTasks runs tasks in order on one generator connection, so no task
// waits behind another of the generator's own, and returns each task's
// latency in nanoseconds.
func runTasks(c *client, k *checker, tasks []task) []int64 {
	lat := make([]int64, len(tasks))
	for i, t := range tasks {
		start := time.Now()
		err := t(c)
		lat[i] = int64(time.Since(start))
		k.check(err)
	}
	return lat
}

// registerTask registers key idx's configuration through the router.
func registerTask(idx int32, key string, cfgJSON []byte, e expect) task {
	return func(c *client) error {
		body := registerBody(nil, key, cfgJSON)
		status, resp, err := c.do(http.MethodPost, "/v1/register", "application/json", body, spanRef{route: routeRegister, key: idx})
		if err != nil {
			return fmt.Errorf("register %s: %w", key, err)
		}
		return verifyRegister(status, resp, key, e)
	}
}

// electTask elects key idx through the router; ok false expects 404.
func electTask(k *checker, idx int32, key string, e expect, ok bool) task {
	body := []byte(`{"key":` + jsonString(key) + `}`)
	return func(c *client) error {
		status, resp, err := c.do(http.MethodPost, "/v1/elect", "application/json", body, spanRef{route: routeElect, key: idx})
		if err != nil {
			return fmt.Errorf("elect %s: %w", key, err)
		}
		if !ok {
			if status != http.StatusNotFound {
				return fmt.Errorf("elect %s: status %d for an evicted key, want 404: %s", key, status, resp)
			}
			return nil
		}
		if err := verifyElectJSON(status, resp, key, e); err != nil {
			return err
		}
		k.elections.Add(1)
		return nil
	}
}

// admissionTasks registers the workload's initial key set.
func (in *inputs) admissionTasks() []task {
	var ts []task
	for i, it := range append(append([]item(nil), in.stable...), in.churn...) {
		ts = append(ts, registerTask(int32(i), it.key, []byte(jsonString(it.spec.text())), it.exp))
	}
	return ts
}

// electionTasks elects every key once: the stable keys, and the churn keys
// in their state after cycle's writer sequence (evicted keys must answer
// 404), or in their initial state when cycle is -1.
func (in *inputs) electionTasks(k *checker, cycle int) []task {
	var ts []task
	for i, it := range in.stable {
		ts = append(ts, electTask(k, int32(i), it.key, it.exp, true))
	}
	for j, it := range in.churn {
		e, ok := it.exp, true
		if cycle >= 0 {
			e, ok = in.expectFinal(cycle, j)
		}
		ts = append(ts, electTask(k, int32(len(in.stable)+j), it.key, e, ok))
	}
	return ts
}

// serveLoad runs serve-small or serve-large: two closed-loop clients, A
// sending JSON and B the binary encoding, for d. It returns every
// request's latency and the number of verified elections.
func serveLoad(cs [2]*client, k *checker, in *inputs, b *bodies, epoch time.Time, d time.Duration) (*series, int64) {
	var (
		wg       sync.WaitGroup
		lats     [2]*series
		verified atomic.Int64
	)
	deadline := epoch.Add(d)
	for g := range cs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, seq, binary := cs[g], in.seqs[g], g == 1
			ct := "application/json"
			if binary {
				ct = server.ContentTypeBinary
			}
			var decoded wire.BatchResponse
			lat := newSeries(epoch, 1<<16)
			for i := 0; time.Now().Before(deadline); i++ {
				j := seq[i%len(seq)]
				path, ref, n := "/v1/elect", spanRef{route: routeElect, key: int32(j)}, int64(1)
				var body []byte
				switch {
				case in.batches != nil:
					path, ref, n = "/v1/elect/batch", spanRef{route: routeBatch, key: -1, batch: int32(j)}, batchSize
					body = b.batchJSON[j]
					if binary {
						body = b.batchBin[j]
					}
				case binary:
					body = b.electBin[j]
				default:
					body = b.electJSON[j]
				}
				start := time.Now()
				status, resp, err := c.do(http.MethodPost, path, ct, body, ref)
				lat.add(start)
				switch {
				case err != nil:
				case in.batches == nil && binary:
					err = verifyElectBin(status, resp, in.stable[j].key, in.stable[j].exp)
				case in.batches == nil:
					err = verifyElectJSON(status, resp, in.stable[j].key, in.stable[j].exp)
				case binary:
					err = verifyBatchBin(in, status, resp, in.batches[j], &decoded)
				default:
					err = verifyBatchJSON(in, status, resp, in.batches[j])
				}
				if k.check(err) {
					verified.Add(n)
				}
			}
			lats[g] = lat
		}(g)
	}
	wg.Wait()
	return lats[0].merge(lats[1]), verified.Load()
}

// churnStats is what the admit-churn measured phase observed.
type churnStats struct {
	registerLat *series // per registration, including 422 answers
	registersOK int64   // registrations answered as the oracle expects
	probeLat    *series // per probe election, from its due time
	probeLate   []int64 // how late each probe request was sent
	verified    int64   // verified probe elections
}

// probeInterval is the open-loop probe's schedule: 100 elections/s.
const probeInterval = 10 * time.Millisecond

// churnLoad runs admit-churn's measured phase: client 0 is the open-loop
// probe electing stable keys on a fixed schedule, client 1 the closed-loop
// writer running the fixed operation sequence. The phase ends when the
// writer's sequence does.
func churnLoad(cs [2]*client, k *checker, in *inputs, b *bodies, ops []op, epoch time.Time) *churnStats {
	st := &churnStats{probeLat: newSeries(epoch, 1<<12), registerLat: newSeries(epoch, len(ops))}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, start := cs[0], epoch
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * probeInterval)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-stop:
					return
				case <-time.After(wait):
				}
			} else {
				select {
				case <-stop:
					return
				default:
				}
			}
			j := in.seqs[0][i%len(in.seqs[0])]
			st.probeLate = append(st.probeLate, int64(time.Since(due)))
			status, resp, err := c.do(http.MethodPost, "/v1/elect", "application/json", b.electJSON[j], spanRef{route: routeElect, key: int32(j)})
			st.probeLat.add(due)
			if err == nil {
				err = verifyElectJSON(status, resp, in.stable[j].key, in.stable[j].exp)
			}
			if k.check(err) {
				st.verified++
			}
		}
	}()

	c := cs[1]
	var body []byte
	for _, o := range ops {
		key := in.churn[o.key].key
		ref := spanRef{route: routeRegister, key: int32(len(in.stable) + o.key)}
		start := time.Now()
		var err error
		if o.evict {
			ref.route = routeEvict
			var status int
			var resp []byte
			if status, resp, err = c.do(http.MethodDelete, "/v1/configs/"+key, "", nil, ref); err == nil {
				err = verifyEvict(status, resp, key)
			}
			k.check(err)
			continue
		}
		body = registerBody(body, key, b.cfgJSON[o.cfg])
		status, resp, err := c.do(http.MethodPost, "/v1/register", "application/json", body, ref)
		st.registerLat.add(start)
		if err == nil {
			err = verifyRegister(status, resp, key, in.pool[o.cfg].exp)
		}
		if k.check(err) {
			st.registersOK++
		}
	}
	close(stop)
	wg.Wait()
	return st
}

// series holds latency samples with the time each one completed, relative
// to the measured phase's start.
type series struct {
	epoch  time.Time
	at, ns []int64
}

func newSeries(epoch time.Time, capacity int) *series {
	return &series{epoch: epoch, at: make([]int64, 0, capacity), ns: make([]int64, 0, capacity)}
}

// add records a sample that started at start and completes now.
func (s *series) add(start time.Time) {
	now := time.Now()
	s.at = append(s.at, int64(now.Sub(s.epoch)))
	s.ns = append(s.ns, int64(now.Sub(start)))
}

// merge interleaves two series in completion order.
func (s *series) merge(o *series) *series {
	m := newSeries(s.epoch, len(s.at)+len(o.at))
	i, j := 0, 0
	for i < len(s.at) || j < len(o.at) {
		if j == len(o.at) || (i < len(s.at) && s.at[i] <= o.at[j]) {
			m.at, m.ns = append(m.at, s.at[i]), append(m.ns, s.ns[i])
			i++
		} else {
			m.at, m.ns = append(m.at, o.at[j]), append(m.ns, o.ns[j])
			j++
		}
	}
	return m
}
