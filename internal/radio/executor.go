package radio

import (
	"fmt"
	"runtime"
	"sync"
)

// An Executor is the step-execution seam of the Simulator: it schedules the
// consult step of one global round (the Act calls of the round's due nodes).
// A node's action is a pure function of that node's own history, so every
// schedule — an inline loop, or contiguous shards of the due list on a
// worker pool — produces bit-identical actions; the seam only changes how
// fast the step runs, never what it computes. The engine-equivalence
// property tests enforce exactly that.
//
// An Executor is plugged into a Simulator at construction time
// (NewSimulator, NewParallelSimulator) and is owned by that simulator
// afterwards; Simulator.Close releases it.
type Executor interface {
	// act consults the protocols of one global round's due nodes by
	// invoking (*Simulator).actDue over a partition of the due list.
	act(s *Simulator, round int, due []int32)
	// Name identifies the executor in engine names and reports.
	Name() string
	// Close releases executor resources. It is a no-op for the inline
	// executor; the pool executor stops its worker goroutines.
	Close()
}

// inlineExecutor runs the consult step as a plain loop on the calling
// goroutine. It is the executor behind NewSimulator and the Sequential
// engine.
type inlineExecutor struct{}

// NewInlineExecutor returns the single-threaded executor: the consult step
// is one in-order loop over the due list on the calling goroutine.
func NewInlineExecutor() Executor { return inlineExecutor{} }

func (inlineExecutor) act(s *Simulator, round int, due []int32) { s.actDue(round, due) }

// Name implements Executor.
func (inlineExecutor) Name() string { return "inline" }

// Close implements Executor.
func (inlineExecutor) Close() {}

// poolJob is one shard of a consult step handed to a pool worker.
type poolJob struct {
	s     *Simulator
	round int
	due   []int32
}

// poolExecutor shards the consult step across a persistent pool of worker
// goroutines. Unlike the retired goroutine-per-node coordinator it performs
// a constant number of channel operations per round (two per worker, not two
// per node), keeps no per-node goroutine state, and allocates nothing in
// steady state: workers live for the executor's lifetime and every job is a
// value sent over a buffered channel. Each worker takes one contiguous part
// of the round's due list.
type poolExecutor struct {
	jobs []chan poolJob
	wg   sync.WaitGroup
	once sync.Once
}

// NewPoolExecutor returns an executor that shards the consult step over
// `workers` persistent goroutines; workers <= 0 selects GOMAXPROCS. The
// executor must be released with Close (or Simulator.Close) once its
// simulator is no longer needed.
func NewPoolExecutor(workers int) Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &poolExecutor{jobs: make([]chan poolJob, workers)}
	for i := range p.jobs {
		ch := make(chan poolJob, 1)
		p.jobs[i] = ch
		go p.worker(ch)
	}
	return p
}

func (p *poolExecutor) worker(ch chan poolJob) {
	for job := range ch {
		job.s.actDue(job.round, job.due)
		p.wg.Done()
	}
}

func (p *poolExecutor) act(s *Simulator, round int, due []int32) {
	workers := min(len(p.jobs), len(due))
	if workers <= 1 {
		s.actDue(round, due)
		return
	}
	// Disjoint parts of the due list hold disjoint nodes, so workers never
	// write the same slice element and results are schedule-independent.
	chunk := (len(due) + workers - 1) / workers
	p.wg.Add((len(due) + chunk - 1) / chunk)
	for i, lo := 0, 0; lo < len(due); i, lo = i+1, lo+chunk {
		p.jobs[i] <- poolJob{s: s, round: round, due: due[lo:min(lo+chunk, len(due))]}
	}
	p.wg.Wait()
}

// Name implements Executor.
func (p *poolExecutor) Name() string { return fmt.Sprintf("pool-%d", len(p.jobs)) }

// Close implements Executor. It stops the worker goroutines; calling it more
// than once is safe.
func (p *poolExecutor) Close() {
	p.once.Do(func() {
		for _, ch := range p.jobs {
			close(ch)
		}
	})
}
