package runner

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRetryDelaySchedule(t *testing.T) {
	t.Parallel()
	cases := []struct {
		base, max time.Duration
		attempt   int
		want      time.Duration
	}{
		{0, 0, 1, 100 * time.Millisecond},
		{0, 0, 2, 200 * time.Millisecond},
		{0, 0, 3, 400 * time.Millisecond},
		{0, 0, 7, 5 * time.Second},
		{0, 0, 60, 5 * time.Second},
		{10 * time.Millisecond, 80 * time.Millisecond, 1, 10 * time.Millisecond},
		{10 * time.Millisecond, 80 * time.Millisecond, 3, 40 * time.Millisecond},
		{10 * time.Millisecond, 80 * time.Millisecond, 4, 80 * time.Millisecond},
		{10 * time.Millisecond, 80 * time.Millisecond, 9, 80 * time.Millisecond},
		{200 * time.Millisecond, 50 * time.Millisecond, 1, 50 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := retryDelay(tc.base, tc.max, tc.attempt); got != tc.want {
			t.Errorf("retryDelay(%v, %v, %d) = %v, want %v",
				tc.base, tc.max, tc.attempt, got, tc.want)
		}
	}
}

func TestAttemptDefaultsToOne(t *testing.T) {
	t.Parallel()
	if got := Attempt(context.Background()); got != 1 {
		t.Fatalf("Attempt on bare context = %d, want 1", got)
	}
	if got := Attempt(WithAttempt(context.Background(), 3)); got != 3 {
		t.Fatalf("Attempt = %d, want 3", got)
	}
}

// A job that fails its first attempts and then succeeds delivers its
// result with no error; the pool snapshot counts the dispatched
// retries.
func TestRetryThenSucceed(t *testing.T) {
	t.Parallel()
	jobs := []Job{{Name: "flaky", Seed: 9, Run: func(ctx context.Context) any {
		if Attempt(ctx) < 3 {
			panic("transient")
		}
		return "recovered"
	}}}
	p := &Pool{Workers: 1, Retries: 2, RetryBase: time.Millisecond}
	results, err := p.Execute(context.Background(), jobs)
	if err != nil {
		t.Fatalf("err = %v, want success after retries", err)
	}
	if results[0] != "recovered" {
		t.Fatalf("result = %v", results[0])
	}
	if snap := p.Snapshot(); snap.Retries != 2 || snap.Done != 1 || snap.Failed != 0 {
		t.Fatalf("snapshot = %+v, want 2 retries, 1 done, 0 failed", snap)
	}
}

// When the retry budget runs out the job lands in the manifest with its
// attempt count and the full error chain, and the healthy jobs still
// deliver.
func TestRetriesExhausted(t *testing.T) {
	t.Parallel()
	jobs := []Job{
		{Name: "fine", Seed: 1, Run: func(context.Context) any { return "ok" }},
		{Name: "doomed", Seed: 2, Run: func(context.Context) any { panic("kaput") }},
	}
	p := &Pool{Workers: 2, Retries: 2, RetryBase: time.Millisecond}
	results, err := p.Execute(context.Background(), jobs)
	var m *Manifest
	if !errors.As(err, &m) {
		t.Fatalf("err = %v, want a *Manifest", err)
	}
	if len(m.Failed) != 1 {
		t.Fatalf("manifest = %+v, want exactly the doomed job", m)
	}
	f := m.Failed[0]
	if f.Index != 1 || f.Attempts != 3 || len(f.Chain) != 3 {
		t.Fatalf("failure = index %d, attempts %d, chain %d, want 1/3/3",
			f.Index, f.Attempts, len(f.Chain))
	}
	if !errors.Is(f.Chain[len(f.Chain)-1], f.Err) && f.Chain[len(f.Chain)-1] != f.Err {
		t.Fatalf("chain tail %v is not the final error %v", f.Chain[2], f.Err)
	}
	if !strings.Contains(f.Error(), "failed 3 attempts") {
		t.Fatalf("error %q does not report the attempt count", f.Error())
	}
	if results[0] != "ok" {
		t.Fatalf("healthy result = %v", results[0])
	}
	if snap := p.Snapshot(); snap.Retries != 2 || snap.Failed != 1 {
		t.Fatalf("snapshot = %+v, want 2 retries, 1 failure", snap)
	}
}

// A job that returns an *InputError fails on its first attempt under
// any retry budget: the runner fills in the job's identity, the error
// carries no stack, and errors.As finds it through the manifest. A
// serial run fails with it the same way.
func TestInputErrorIsNotRetried(t *testing.T) {
	t.Parallel()
	cause := errors.New("resume x.ckpt: codec version 6, this binary reads version 7")
	calls := 0
	jobs := []Job{
		{Name: "fine", Seed: 1, Run: func(context.Context) any { return "ok" }},
		{Name: "stale", Seed: 2, Run: func(context.Context) any {
			calls++
			return &InputError{Err: cause}
		}},
	}
	p := &Pool{Workers: 1, Retries: 2, RetryBase: time.Millisecond}
	results, err := p.Execute(context.Background(), jobs)
	var m *Manifest
	if !errors.As(err, &m) || len(m.Failed) != 1 {
		t.Fatalf("err = %v, want a manifest naming the stale job", err)
	}
	if f := m.Failed[0]; f.Attempts != 1 || calls != 1 {
		t.Fatalf("attempts %d, calls %d, want one of each", f.Attempts, calls)
	}
	var input *InputError
	if !errors.As(err, &input) || !errors.Is(err, cause) {
		t.Fatalf("manifest %v does not unwrap to the input error", err)
	}
	if want := "job 1 (stale, seed 2): " + cause.Error(); input.Error() != want {
		t.Fatalf("input error %q, want %q", input.Error(), want)
	}
	if results[0] != "ok" || p.Snapshot().Retries != 0 {
		t.Fatalf("healthy result %v, retries %d", results[0], p.Snapshot().Retries)
	}
	if _, err := (Serial{}).Execute(context.Background(), jobs); !errors.As(err, &input) || strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("serial error %v, want the input error without a stack", err)
	}
}

// The watchdog and the retry budget compose: a job that hangs past the
// deadline on its first attempt is abandoned and retried, and the
// retry (seeing its ordinal via Attempt) can succeed.
func TestDeadlineAbandonThenRetrySucceeds(t *testing.T) {
	t.Parallel()
	jobs := []Job{{Name: "hang-once", Seed: 4, Run: func(ctx context.Context) any {
		if Attempt(ctx) == 1 {
			<-ctx.Done()
			return nil
		}
		return 42
	}}}
	p := &Pool{Workers: 1, JobDeadline: 30 * time.Millisecond,
		Retries: 1, RetryBase: time.Millisecond}
	results, err := p.Execute(context.Background(), jobs)
	if err != nil {
		t.Fatalf("err = %v, want recovery on the retry", err)
	}
	if results[0] != 42 {
		t.Fatalf("result = %v", results[0])
	}
	if snap := p.Snapshot(); snap.Retries != 1 {
		t.Fatalf("snapshot retries = %d, want 1", snap.Retries)
	}
}

// Caller cancellation must cut the backoff wait short instead of
// sleeping through it.
func TestCancellationCutsBackoffShort(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	jobs := []Job{{Name: "doomed", Run: func(context.Context) any {
		cancel()
		panic("kaput")
	}}}
	p := &Pool{Workers: 1, Retries: 3, RetryBase: time.Hour, RetryMax: time.Hour}
	start := time.Now()
	_, err := p.Execute(ctx, jobs)
	if err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, backoff was not cut short", elapsed)
	}
}
