package serve

import "net/http"

// limiter is a non-blocking concurrency cap: tryAcquire fails
// immediately when n slots are taken, which the server translates into
// 429 + Retry-After rather than queueing work it may never get to. A
// nil limiter is unlimited.
type limiter struct {
	slots chan struct{}
}

// newLimiter returns a limiter with n slots, or nil (unlimited) for
// n <= 0.
func newLimiter(n int) *limiter {
	if n <= 0 {
		return nil
	}
	return &limiter{slots: make(chan struct{}, n)}
}

func (l *limiter) tryAcquire() bool {
	if l == nil {
		return true
	}
	select {
	case l.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (l *limiter) release() {
	if l == nil {
		return
	}
	<-l.slots
}

// throttle writes the 429 response for an exhausted limiter.
func throttle(w http.ResponseWriter) {
	mThrottled.Inc()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, "server is at its concurrency limit, retry shortly")
}
