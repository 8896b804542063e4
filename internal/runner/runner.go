// Package runner is the scenario execution engine: it runs batches of
// independent jobs either serially or on a fixed worker pool, returning
// the results in job order regardless of the execution schedule. Each
// job carries its own deterministic seed, so a batch produces identical
// results under any worker count — the property the experiment layer
// relies on for byte-identical tables in serial and parallel mode.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one independent unit of work.
type Job struct {
	// Name labels the job in progress reports (e.g. "fig5 L=8 pairs=16").
	Name string
	// Seed records the deterministic seed driving the job. It is
	// informational — Run must capture the seed itself — but keeping it
	// here makes batches auditable.
	Seed uint64
	// Run computes the job's result. It must be safe to call from any
	// goroutine and must derive all randomness from the captured seed.
	Run func(ctx context.Context) any
}

// Progress reports the completion of one job.
type Progress struct {
	// Done and Total count finished jobs and the batch size.
	Done, Total int
	// Index is the finished job's position in the batch.
	Index int
	// Name is the finished job's label.
	Name string
}

// Executor runs a batch of jobs and returns their results in job order.
// An Executor must be deterministic given deterministic jobs: the
// returned slice depends only on the jobs, never on scheduling.
type Executor interface {
	Execute(ctx context.Context, jobs []Job) ([]any, error)
}

// Serial runs jobs one at a time, in order, on the calling goroutine.
type Serial struct {
	// OnProgress, when non-nil, is called after each job completes.
	OnProgress func(Progress)
}

// Execute implements Executor.
func (s Serial) Execute(ctx context.Context, jobs []Job) ([]any, error) {
	results := make([]any, len(jobs))
	for i, j := range jobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v, err := runOne(ctx, i, j)
		if err != nil {
			return nil, err
		}
		results[i] = v
		if s.OnProgress != nil {
			s.OnProgress(Progress{Done: i + 1, Total: len(jobs), Index: i, Name: j.Name})
		}
	}
	return results, nil
}

// JobError identifies one failed job of a batch: enough to rerun it in
// isolation (the index and the deterministic seed) plus the cause.
type JobError struct {
	// Index is the job's position in the batch.
	Index int
	// Name is the job's label.
	Name string
	// Seed is the job's deterministic seed.
	Seed uint64
	// Err is what finally failed: a watchdog deadline or a recovered
	// panic, from the last attempt.
	Err error
	// Attempts counts how many times the job ran (1 when the pool had no
	// retry budget).
	Attempts int
	// Chain holds every attempt's error in attempt order; its last entry
	// is Err. Nil when the job ran once.
	Chain []error
}

func (e JobError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("job %d (%s, seed %d) failed %d attempts: %v", e.Index, e.Name, e.Seed, e.Attempts, e.Err)
	}
	return fmt.Sprintf("job %d (%s, seed %d): %v", e.Index, e.Name, e.Seed, e.Err)
}

// Unwrap returns the last attempt's error.
func (e JobError) Unwrap() error { return e.Err }

// InputError is the result a job's Run returns when the job cannot run
// on its input — a snapshot this binary cannot read, say. The job fails
// like one that panicked, but the error carries no stack and no retry
// is attempted: the same input fails the same way every time. The
// runner fills in the job's identity.
type InputError struct {
	Index int
	Name  string
	Seed  uint64
	Err   error
}

func (e *InputError) Error() string {
	return fmt.Sprintf("job %d (%s, seed %d): %v", e.Index, e.Name, e.Seed, e.Err)
}

// Unwrap returns the input error itself.
func (e *InputError) Unwrap() error { return e.Err }

// Manifest is the error a hardened Pool returns when some jobs of a
// batch failed: the survivors' results are still delivered, the
// failures are listed here in index order. Callers that can fold
// partial results check for it with errors.As.
type Manifest struct {
	// Total is the batch size.
	Total int
	// Failed lists the failed jobs in index order.
	Failed []JobError
}

func (m *Manifest) Error() string {
	return fmt.Sprintf("runner: %d of %d jobs failed; first: %v", len(m.Failed), m.Total, m.Failed[0])
}

// Unwrap returns every failed job's error, so errors.As finds an
// InputError behind any of them.
func (m *Manifest) Unwrap() []error {
	errs := make([]error, len(m.Failed))
	for i, je := range m.Failed {
		errs[i] = je
	}
	return errs
}

// Pool runs jobs concurrently on a fixed set of workers. Results are
// collected by job index, so the output order matches the input order.
type Pool struct {
	// Workers is the worker count; <= 0 means runtime.NumCPU().
	Workers int
	// OnProgress, when non-nil, is called after each job completes. The
	// pool serializes the calls, but they may come from any worker and
	// in any completion order.
	OnProgress func(Progress)
	// JobDeadline, when positive, hardens the pool with a per-job
	// watchdog: a job exceeding the deadline has its context cancelled
	// and is abandoned, recorded with its index and seed so the run is
	// reproducible in isolation, and the remaining jobs keep running. In
	// this mode a failing job (deadline or panic) no longer nukes the
	// sweep — Execute returns the surviving results (failed slots nil)
	// together with a *Manifest error. Zero keeps the legacy fail-fast
	// behavior. A job that ignores its cancelled context leaks its
	// goroutine until it returns; that is the price of guaranteed
	// progress past a hung job.
	JobDeadline time.Duration
	// Retries, when positive, gives every failing job that many extra
	// attempts (deadline-abandoned and panicked jobs alike) with
	// exponential backoff between attempts, and — like JobDeadline —
	// hardens the pool: failures are collected into a *Manifest instead
	// of nuking the batch. Each attempt sees its ordinal through
	// Attempt(ctx), so checkpoint-aware jobs can resume from their last
	// snapshot instead of recomputing from scratch.
	Retries int
	// RetryBase and RetryMax bound the backoff schedule: the wait before
	// attempt n+1 is RetryBase·2^(n-1), capped at RetryMax. Zero values
	// default to 100ms and 5s.
	RetryBase time.Duration
	RetryMax  time.Duration

	// Batch-progress atomics behind Snapshot: stored by Execute and its
	// workers, read from any goroutine by the live-introspection
	// endpoint. They describe the current (or latest) batch only.
	snapTotal   atomic.Int64
	snapDone    atomic.Int64
	snapFailed  atomic.Int64
	snapRunning atomic.Int64
	snapRetries atomic.Int64
	snapStartNs atomic.Int64 // wall-clock batch start, UnixNano
}

// PoolSnapshot is the pool's live batch progress: jobs dispatched,
// finished, failed/abandoned, and the batch's wall-clock age. It is
// wall-clock flavored by nature and feeds the live-introspection
// endpoint only — never deterministic output.
type PoolSnapshot struct {
	// Total is the size of the current (or latest) batch.
	Total int
	// Done counts jobs that finished successfully.
	Done int
	// Failed counts jobs that failed or were abandoned by the watchdog.
	Failed int
	// Running counts jobs currently executing on workers.
	Running int
	// Retries counts retry attempts dispatched so far (a job that fails
	// twice and then succeeds contributes two).
	Retries int
	// Elapsed is the wall-clock time since the batch started.
	Elapsed time.Duration
}

// Snapshot returns the pool's live batch progress. Safe to call from
// any goroutine, including while Execute is running.
func (p *Pool) Snapshot() PoolSnapshot {
	s := PoolSnapshot{
		Total:   int(p.snapTotal.Load()),
		Done:    int(p.snapDone.Load()),
		Failed:  int(p.snapFailed.Load()),
		Running: int(p.snapRunning.Load()),
		Retries: int(p.snapRetries.Load()),
	}
	if start := p.snapStartNs.Load(); start > 0 {
		s.Elapsed = time.Duration(time.Now().UnixNano() - start)
	}
	return s
}

// NewPool returns a pool with the given worker count (<= 0 = NumCPU).
func NewPool(workers int) *Pool { return &Pool{Workers: workers} }

// Execute implements Executor. Without a JobDeadline, the first job
// error (or context cancellation) stops the dispatch of further jobs;
// in-flight jobs run to completion before Execute returns. With a
// JobDeadline the pool is hardened: job failures are collected into a
// *Manifest, dispatch continues, and the partial results come back with
// the manifest as the error. Context cancellation aborts either mode.
func (p *Pool) Execute(ctx context.Context, jobs []Job) ([]any, error) {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if len(jobs) == 0 {
		return nil, ctx.Err()
	}
	p.snapTotal.Store(int64(len(jobs)))
	p.snapDone.Store(0)
	p.snapFailed.Store(0)
	p.snapRunning.Store(0)
	p.snapRetries.Store(0)
	p.snapStartNs.Store(time.Now().UnixNano())

	outer := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]any, len(jobs))
	indices := make(chan int)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		done     int
		firstErr error
		failed   []JobError
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				p.snapRunning.Add(1)
				v, attempts, chain, err := p.runAttempts(ctx, i, jobs[i])
				p.snapRunning.Add(-1)
				if err != nil {
					p.snapFailed.Add(1)
					// Cancellation (the caller's or a fail-fast peer's)
					// always aborts; in hardened mode every other
					// failure is recorded and the worker moves on.
					if !p.hardened() || ctx.Err() != nil {
						fail(err)
						return
					}
					je := JobError{Index: i, Name: jobs[i].Name, Seed: jobs[i].Seed,
						Err: err, Attempts: attempts}
					if attempts > 1 {
						je.Chain = chain
					}
					mu.Lock()
					failed = append(failed, je)
					mu.Unlock()
					continue
				}
				results[i] = v
				p.snapDone.Add(1)
				mu.Lock()
				done++
				prog := Progress{Done: done, Total: len(jobs), Index: i, Name: jobs[i].Name}
				if p.OnProgress != nil {
					p.OnProgress(prog)
				}
				mu.Unlock()
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case indices <- i:
		case <-ctx.Done():
			fail(ctx.Err())
			break dispatch
		}
	}
	close(indices)
	wg.Wait()
	if firstErr != nil {
		// Prefer the caller's own cancellation cause when there is one.
		if err := outer.Err(); err != nil {
			return nil, err
		}
		return nil, firstErr
	}
	if len(failed) > 0 {
		sort.Slice(failed, func(a, b int) bool { return failed[a].Index < failed[b].Index })
		return results, &Manifest{Total: len(jobs), Failed: failed}
	}
	return results, nil
}

// hardened reports whether the pool collects failures into a Manifest
// instead of failing fast: either robustness feature (the per-job
// watchdog or the retry budget) switches the mode on.
func (p *Pool) hardened() bool { return p.JobDeadline > 0 || p.Retries > 0 }

// runAttempts executes one job up to 1+Retries times, backing off
// exponentially between attempts. It returns the first successful
// result with the attempt ordinal that produced it and the errors of
// the attempts before it; or, when every attempt failed, a nil value,
// the full error chain, and the last error. Each attempt's context
// carries its ordinal (see Attempt), so a checkpoint-aware job can
// resume from its last snapshot instead of recomputing from scratch.
func (p *Pool) runAttempts(ctx context.Context, i int, j Job) (any, int, []error, error) {
	attempts := 1 + p.Retries
	if attempts < 1 {
		attempts = 1
	}
	var chain []error
	for a := 1; a <= attempts; a++ {
		actx := WithAttempt(ctx, a)
		var v any
		var err error
		if p.JobDeadline > 0 {
			v, err = p.runDeadlined(actx, i, j)
		} else {
			v, err = runOne(actx, i, j)
		}
		if err == nil {
			return v, a, chain, nil
		}
		chain = append(chain, err)
		var input *InputError
		if ctx.Err() != nil || a == attempts || errors.As(err, &input) {
			break
		}
		p.snapRetries.Add(1)
		select {
		case <-time.After(retryDelay(p.RetryBase, p.RetryMax, a)):
		case <-ctx.Done():
			return nil, a, chain, chain[len(chain)-1]
		}
	}
	return nil, len(chain), chain, chain[len(chain)-1]
}

// retryDelay is the backoff before the attempt following failed attempt
// n (1-based): base·2^(n-1), capped at max. Zero base and max default
// to 100ms and 5s.
func retryDelay(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	d := base
	for k := 1; k < attempt; k++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// attemptKey carries the attempt ordinal in a job's context.
type attemptKey struct{}

// WithAttempt returns a context carrying the attempt ordinal (1-based).
func WithAttempt(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, attemptKey{}, n)
}

// Attempt returns the attempt ordinal carried by the context, 1 when
// none is (every non-retrying execution path).
func Attempt(ctx context.Context) int {
	if n, ok := ctx.Value(attemptKey{}).(int); ok && n > 0 {
		return n
	}
	return 1
}

// runDeadlined is runOne behind a watchdog: the job runs on its own
// goroutine with a deadline-bearing context, and a job that overstays
// is abandoned (reported with index and seed; its goroutine exits
// whenever the job honors the cancelled context or returns).
func (p *Pool) runDeadlined(ctx context.Context, i int, j Job) (any, error) {
	jctx, cancel := context.WithTimeout(ctx, p.JobDeadline)
	defer cancel()
	type outcome struct {
		v   any
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := runOne(jctx, i, j)
		done <- outcome{v, err}
	}()
	select {
	case o := <-done:
		return o.v, o.err
	case <-jctx.Done():
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("runner: job %d (%s, seed %d) exceeded the %v watchdog deadline and was abandoned; rerun that seed in isolation to reproduce", i, j.Name, j.Seed, p.JobDeadline)
	}
}

// maxPanicStack bounds the stack excerpt embedded in a panic error:
// enough frames to locate the fault, not enough to drown the report.
const maxPanicStack = 4096

// runOne executes one job, converting a panic into an error so a bad
// job cannot kill a worker goroutine (and with it the process) without
// a diagnosable cause. The error carries the job index, its
// deterministic seed and a truncated stack, so the exact run is
// reproducible in isolation (rerun the scenario filtered to that seed).
// A job that returns an *InputError fails with it, identity filled in.
func runOne(ctx context.Context, index int, j Job) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if len(stack) > maxPanicStack {
				stack = append(stack[:maxPanicStack], []byte("\n... (stack truncated)")...)
			}
			err = fmt.Errorf("runner: job %d (%s, seed %d) panicked: %v\n%s", index, j.Name, j.Seed, r, stack)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v = j.Run(ctx)
	if input, ok := v.(*InputError); ok {
		input.Index, input.Name, input.Seed = index, j.Name, j.Seed
		return nil, input
	}
	return v, nil
}
