package sim

import (
	"errors"
	"reflect"
	"testing"
)

var (
	errFlaky = errors.New("flaky")
	errFatal = errors.New("fatal")
)

// TestRetryBackoffDoublesToCap: every failure is retried after base,
// 2x base, ... capped at MaxBackoff, and done sees the last error once
// MaxRetries retries ran.
func TestRetryBackoffDoublesToCap(t *testing.T) {
	eng := NewEngine()
	var at, delays []Time
	var final error
	RetryPolicy{MaxRetries: 4, BaseBackoff: 1, MaxBackoff: 3}.Retry(eng, func(done func(error)) {
		at = append(at, eng.Now())
		done(errFlaky)
	}, nil, func(d Time) {
		delays = append(delays, d)
	}, func(err error) { final = err })
	eng.Run()
	if want := []Time{1, 2, 3, 3}; !reflect.DeepEqual(delays, want) {
		t.Fatalf("delays %v, want %v", delays, want)
	}
	if want := []Time{0, 1, 3, 6, 9}; !reflect.DeepEqual(at, want) {
		t.Fatalf("attempts at %v, want %v", at, want)
	}
	if final != errFlaky {
		t.Fatalf("final error %v, want %v", final, errFlaky)
	}
}

// TestRetryEnds covers every way out of the loop: success, a refused
// error, and the zero policy, which never retries.
func TestRetryEnds(t *testing.T) {
	for _, tc := range []struct {
		name     string
		policy   RetryPolicy
		results  []error
		want     error
		attempts int
	}{
		{"success", RetryPolicy{MaxRetries: 5, BaseBackoff: 1, MaxBackoff: 1}, []error{errFlaky, nil}, nil, 2},
		{"refused", RetryPolicy{MaxRetries: 5, BaseBackoff: 1, MaxBackoff: 1}, []error{errFlaky, errFatal}, errFatal, 2},
		{"zero policy", RetryPolicy{}, []error{errFlaky}, errFlaky, 1},
	} {
		eng := NewEngine()
		attempts := 0
		final := errors.New("done never ran")
		tc.policy.Retry(eng, func(done func(error)) {
			attempts++
			done(tc.results[attempts-1])
		}, func(err error) bool {
			return err != errFatal
		}, func(Time) {}, func(err error) { final = err })
		eng.Run()
		if final != tc.want || attempts != tc.attempts {
			t.Errorf("%s: final %v after %d attempts, want %v after %d",
				tc.name, final, attempts, tc.want, tc.attempts)
		}
	}
}
