package admission

import (
	"sync"
	"time"
)

// WindowController turns the §3 batcher's fixed admission window into a
// control loop: under queue pressure the window widens so more concurrent
// arrivals are co-admitted (amortizing optimization and sharing live source
// streams), and when the queue is empty — or the observed latency tail
// approaches the deadline budget — it shrinks back toward zero so idle
// traffic is not taxed with batching delay it cannot amortize.
//
// One controller belongs to one shard and is driven from that shard's
// executor: ObserveQueue at every batch release, ObserveLatency at every
// completion. Window may be read from any goroutine.
type WindowController struct {
	max      time.Duration
	deadline time.Duration

	mu  sync.Mutex
	win time.Duration
	// ewmaNS / devNS track recent completion latency and its deviation; the
	// p99 proxy used against the deadline budget is ewma + 3*dev.
	ewmaNS float64
	devNS  float64
}

// windowStep is the widening increment applied under queue pressure; decay
// halves the window when the queue is empty at a release.
const windowStep = time.Millisecond

// NewWindowController builds a controller clamped to [0, max], starting at
// 0. deadline (0 = none) bounds the latency the widening may induce.
func NewWindowController(max, deadline time.Duration) *WindowController {
	return &WindowController{max: max, deadline: deadline}
}

// Window returns the current admission window.
func (w *WindowController) Window() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.win
}

// ObserveQueue feeds one batch release: depth is how many requests were
// still waiting (queued or pending) when the batch of size batch released.
func (w *WindowController) ObserveQueue(depth, batch int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case depth > 2*batch && depth > 1:
		// A backlog more than twice what one batch drains: widen so the next
		// window co-admits more of it.
		w.win += w.win/4 + windowStep
	case depth == 0:
		// Idle at release: decay toward immediate admission.
		w.win -= w.win/2 + 1
	}
	w.clampLocked()
}

// ObserveLatency feeds one completion's wall latency. When the tail proxy
// crosses half the deadline budget, the window shrinks: admission wait is
// the one latency component this controller owns, and it must not spend the
// budget the engine needs.
func (w *WindowController) ObserveLatency(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ns := float64(d)
	if w.ewmaNS == 0 {
		w.ewmaNS = ns
	}
	diff := ns - w.ewmaNS
	w.ewmaNS += diff / 8
	if diff < 0 {
		diff = -diff
	}
	w.devNS += (diff - w.devNS) / 8
	if w.deadline > 0 && w.ewmaNS+3*w.devNS > float64(w.deadline)/2 {
		w.win -= w.win/2 + 1
		w.clampLocked()
	}
}

func (w *WindowController) clampLocked() {
	if w.win > w.max {
		w.win = w.max
	}
	if w.win < 0 {
		w.win = 0
	}
}
