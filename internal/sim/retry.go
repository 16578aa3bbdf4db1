package sim

// RetryPolicy is a capped exponential backoff in simulated time: the
// first retry waits BaseBackoff, each later one twice the previous wait
// up to MaxBackoff, and at most MaxRetries retries run. The zero policy
// never retries.
type RetryPolicy struct {
	MaxRetries  int
	BaseBackoff Time
	MaxBackoff  Time
}

// retrier is one Retry call's state.
type retrier struct {
	eng       *Engine
	p         RetryPolicy
	tries     int
	backoff   Time
	op        func(done func(error))
	retryable func(error) bool
	onRetry   func(delay Time)
	done      func(error)
}

// Retry runs op, and runs it again after the policy's backoff each time
// it fails while retries remain and retryable (nil: every error)
// accepts the error. Before each retry, onRetry sees the wait ahead and
// does the caller's accounting: counters, a stage timer's backoff. done
// receives the final error: nil, an error retryable refused, or the
// last error once the retries ran out.
func (p RetryPolicy) Retry(eng *Engine, op func(done func(error)), retryable func(error) bool, onRetry func(delay Time), done func(error)) {
	r := &retrier{eng: eng, p: p, backoff: p.BaseBackoff, op: op, retryable: retryable, onRetry: onRetry, done: done}
	r.attempt()
}

func (r *retrier) attempt() { r.op(r.complete) }

func (r *retrier) complete(err error) {
	if err == nil || r.tries >= r.p.MaxRetries || (r.retryable != nil && !r.retryable(err)) {
		r.done(err)
		return
	}
	r.onRetry(r.backoff)
	r.tries++
	d := r.backoff
	if r.backoff *= 2; r.backoff > r.p.MaxBackoff {
		r.backoff = r.p.MaxBackoff
	}
	r.eng.Schedule(d, r.attempt)
}
