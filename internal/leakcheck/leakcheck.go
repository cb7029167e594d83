// Package leakcheck is a test helper that fails a test whose goroutines
// outlive the code that started them. It compares runtime.NumGoroutine
// before and after, so it is only sound in packages whose tests do not
// call t.Parallel.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Check records the current goroutine count and returns a function that
// waits up to two seconds for the count to fall back to it, failing t
// with every goroutine's stack if it does not. Wrap code that must stop
// everything it starts with
//
//	defer leakcheck.Check(t)()
//
// or register the returned function with t.Cleanup.
func Check(t testing.TB) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("leakcheck: %d goroutines still running, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
