package serve

import (
	"net/http"
	"runtime"
	"testing"
	"time"
)

// leakcheck records the goroutine count and the pin count of each
// profile ID now, and registers a teardown that waits until s is idle
// and then asserts both are back to that baseline: no pin and no
// goroutine — a handler, a synthesis shard, a peer call — outlived the
// requests the test made. Idle client connections are closed on both
// sides of the check, so keep-alive goroutines do not count.
func leakcheck(t *testing.T, s *Server, ids ...string) {
	t.Helper()
	base := settledGoroutines()
	refs := make([]int, len(ids))
	for i, id := range ids {
		refs[i] = s.store.refs(id)
	}
	t.Cleanup(func() {
		waitIdle(t, s)
		for i, id := range ids {
			if got := s.store.refs(id); got != refs[i] {
				t.Errorf("leakcheck: profile %s has %d pins, want %d", id, got, refs[i])
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := settledGoroutines()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("leakcheck: %d goroutines, want at most %d:\n%s", n, base, buf[:runtime.Stack(buf, true)])
				return
			}
		}
	})
}

// settledGoroutines closes the default client's idle connections and
// returns the goroutine count once it has stopped changing for a few
// milliseconds (or after half a second), so goroutines that are already
// on their way out are not counted.
func settledGoroutines() int {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
