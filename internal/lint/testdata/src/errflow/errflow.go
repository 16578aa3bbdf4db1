// Fixture for the errflow analyzer: errors from module-internal APIs
// must be consumed on every control-flow path.
package errflow

import "errors"

var errBoom = errors.New("boom")

func fail() error { return errBoom }

func two() (int, error) { return 0, errBoom }

func writeErr(off int, done func(err error)) { done(nil) }

func ready() bool { return false }

func discard() {
	fail() // want `error result of fail discarded`
}

func blank() {
	_ = fail() // want `error result of fail assigned to _`
}

func blankTuple() {
	n, _ := two() // want `error result of two assigned to _`
	println(n)
}

func droppedOnPath(b bool) {
	err := fail() // want `error from fail is dropped: a path reaches function exit without reading it`
	if b {
		println(err.Error())
	}
}

func overwritten(b bool) {
	err := fail() // want `error from fail is overwritten before being read on some path`
	if b {
		err = fail()
	}
	if err != nil {
		println("late check")
	}
}

// firstErrorWins drops the second error whenever err is already set —
// the exact idiom this analyzer caught in core's Writer.Close.
func firstErrorWins(err error) error {
	if e := fail(); err == nil { // want `error from fail is dropped: a path reaches function exit without reading it`
		err = e
	}
	return err
}

// firstErrorWinsFixed reads the second error before deciding: clean.
func firstErrorWinsFixed(err error) error {
	if e := fail(); e != nil && err == nil {
		err = e
	}
	return err
}

// checked consumes the error on every path: clean.
func checked() error {
	err := fail()
	if err != nil {
		return err
	}
	return nil
}

// loopRedef reads the error before each redefinition: clean.
func loopRedef() {
	for i := 0; i < 3; i++ {
		err := fail()
		if err != nil {
			println(err.Error())
		}
	}
}

// escapes hands the error to a deferred closure: the path analysis
// declines rather than guesses, so this is clean.
func escapes() {
	err := fail()
	defer func() { _ = err }()
}

func callbackIgnored() {
	writeErr(1, func(err error) { // want `error parameter err of callback passed to writeErr is ignored on a path to return`
		println("done")
	})
}

func callbackBlank() {
	writeErr(2, func(_ error) { // want `error parameter of callback passed to writeErr is discarded with _`
	})
}

func callbackUnnamed() {
	writeErr(3, func(error) { // want `error parameter of callback passed to writeErr is unnamed and so silently ignored`
	})
}

func callbackPartial() {
	writeErr(4, func(err error) { // want `error parameter err of callback passed to writeErr is ignored on a path to return`
		if ready() {
			println(err.Error())
		}
	})
}

// callbackChecked reads the error first on every path: clean.
func callbackChecked() {
	writeErr(5, func(err error) {
		if err != nil {
			println(err.Error())
		}
	})
}

// The line-level escape hatch still works.
func allowed() {
	fail() //lint:allow errflow -- fixture proves the escape hatch
}

// callbackSwitch reads the error in the first case condition, which runs
// on every path into the later cases and default: clean.
func callbackSwitch(b bool) {
	writeErr(6, func(err error) {
		switch {
		case err != nil:
			println(err.Error())
		case b:
			println("b")
		default:
			println("neither")
		}
	})
}

// switchChecked reads the error in the first case condition before any
// later case is tried: clean.
func switchChecked(b bool) {
	err := fail()
	switch {
	case err != nil:
		println(err.Error())
	case b:
		println("b")
	}
}
