package ops

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ShedError is returned when admission rejects a request outright —
// the queue for its class is full, or burn-coupled shedding is active
// and the request is batch-class. HTTP handlers map it to 429 with the
// Retry-After hint.
type ShedError struct {
	// Class the rejected request belonged to.
	Class Class
	// Reason is the metric label: "queue_full" or "burn".
	Reason string
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: %s request shed (%s), retry after %s", e.Class, e.Reason, e.RetryAfter)
}

// ErrDeadlineExceeded reports a request whose deadline expired before
// a slot could be granted — either already expired on arrival, or
// while queued. Maps to 503 (the work was accepted but could not be
// served in time), distinct from a shed.
var ErrDeadlineExceeded = errors.New("admission: deadline exceeded before slot granted")

// ErrCanceled reports a request whose client went away while queued.
var ErrCanceled = errors.New("admission: canceled while queued")

// ErrClosed reports a controller that has been shut down.
var ErrClosed = errors.New("admission: controller closed")

// ControllerConfig bounds a Controller. Zero values pick the noted
// defaults.
type ControllerConfig struct {
	// MaxConcurrent is the number of execution slots (default 64).
	MaxConcurrent int
	// MaxQueue bounds each class's wait queue (default 256). A request
	// arriving at a full queue is shed immediately with "queue_full".
	MaxQueue int
	// RetryAfter is the backoff hint stamped on ShedErrors (default 1s).
	RetryAfter time.Duration
	// Now is the clock (default time.Now). Injectable for tests.
	Now func() time.Time
}

type waiter struct {
	class Class
	enq   time.Time
	// res receives exactly one value: nil when a slot was granted, or
	// the shed error when swept. Buffered so the granting/sweeping side
	// never blocks on a waiter that is concurrently timing out.
	res chan error
	// granted marks a waiter that was handed a slot; checked under the
	// controller mutex by the cancellation path to decide whether a
	// slot must be returned.
	granted bool
	// abandoned marks a waiter whose requester gave up (deadline or
	// cancel); the grant loop skips it without consuming a slot.
	abandoned bool
}

// Controller is the bounded admission gate ahead of the engine pool.
// Admit blocks until an execution slot is granted, the context ends,
// or the request is shed; the returned release function must be called
// exactly once when the admitted work finishes. Interactive waiters
// are always granted before batch waiters; within a class, FIFO.
type Controller struct {
	cfg ControllerConfig
	m   *Metrics

	mu       chan struct{} // 1-buffered semaphore used as the lock (keeps lock ordering trivial)
	inFlight int
	shedding bool
	closed   bool
	queues   [numClasses][]*waiter
}

// NewController builds a Controller. Metrics may be nil.
func NewController(cfg ControllerConfig, m *Metrics) *Controller {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 64
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 256
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Controller{cfg: cfg, m: m, mu: make(chan struct{}, 1)}
	c.mu <- struct{}{}
	return c
}

func (c *Controller) lock()   { <-c.mu }
func (c *Controller) unlock() { c.mu <- struct{}{} }

// Admit requests an execution slot for one unit of work in the given
// class. It returns a release function to call when the work is done,
// or an error: *ShedError (rejected, tell the client to back off),
// ErrDeadlineExceeded (ctx deadline hit before a slot was free),
// ErrCanceled (ctx canceled while queued), or ErrClosed.
func (c *Controller) Admit(ctx context.Context, class Class) (release func(), err error) {
	if c == nil {
		return func() {}, nil
	}
	if class != Batch {
		class = Interactive
	}
	// A deadline that has already passed never queues: the client is
	// gone before the work could matter.
	select {
	case <-ctx.Done():
		return nil, c.doneErr(ctx, class)
	default:
	}

	c.lock()
	if c.closed {
		c.unlock()
		return nil, ErrClosed
	}
	if c.shedding && class == Batch {
		c.unlock()
		return nil, c.shed(class, "burn")
	}
	if c.inFlight < c.cfg.MaxConcurrent && c.queueEmptyLocked() {
		c.inFlight++
		c.gauges()
		c.unlock()
		c.m.incAdmitted(class.String())
		c.observeWait(class, 0)
		return c.releaseFunc(), nil
	}
	if len(c.queues[class]) >= c.cfg.MaxQueue {
		c.unlock()
		return nil, c.shed(class, "queue_full")
	}
	w := &waiter{class: class, enq: c.cfg.Now(), res: make(chan error, 1)}
	c.queues[class] = append(c.queues[class], w)
	// Re-run the grant loop under the same lock: the enqueue may have
	// raced a release that found the queue empty, and a higher-priority
	// arrival must not strand free slots behind it.
	c.grantLocked()
	c.gauges()
	c.unlock()

	select {
	case err := <-w.res:
		if err != nil {
			return nil, err
		}
		c.m.incAdmitted(class.String())
		c.observeWait(class, c.cfg.Now().Sub(w.enq).Seconds())
		return c.releaseFunc(), nil
	case <-ctx.Done():
		c.lock()
		if w.granted {
			// The grant raced the cancellation: a slot was assigned
			// between ctx.Done firing and us taking the lock. Hand it
			// straight back so nothing leaks.
			c.releaseLocked()
			c.gauges()
			c.unlock()
			return nil, c.doneErr(ctx, class)
		}
		w.abandoned = true
		c.removeLocked(w)
		c.gauges()
		c.unlock()
		return nil, c.doneErr(ctx, class)
	}
}

// SetShedding switches burn-coupled shedding on or off. Turning it on
// immediately sweeps every queued batch waiter (the "shed storm"): each
// is failed with a burn ShedError, releasing its queue slot, while
// queued interactive waiters are untouched.
func (c *Controller) SetShedding(on bool) {
	if c == nil {
		return
	}
	c.lock()
	was := c.shedding
	c.shedding = on
	var swept []*waiter
	if on && !was {
		swept = c.queues[Batch]
		c.queues[Batch] = nil
	}
	c.gauges()
	if c.m != nil {
		v := 0.0
		if on {
			v = 1
		}
		c.m.Shedding.Set(v)
	}
	c.unlock()
	for _, w := range swept {
		w.res <- c.shed(Batch, "burn")
	}
}

// Shedding reports whether batch shedding is currently active.
func (c *Controller) Shedding() bool {
	if c == nil {
		return false
	}
	c.lock()
	defer c.unlock()
	return c.shedding
}

// InFlight reports the number of slots currently held.
func (c *Controller) InFlight() int {
	if c == nil {
		return 0
	}
	c.lock()
	defer c.unlock()
	return c.inFlight
}

// QueueDepth reports the current queue length for a class.
func (c *Controller) QueueDepth(class Class) int {
	if c == nil {
		return 0
	}
	c.lock()
	defer c.unlock()
	return len(c.queues[class])
}

// Close fails every queued waiter with ErrClosed and rejects all
// future Admits. Held slots may still be released afterwards.
func (c *Controller) Close() {
	if c == nil {
		return
	}
	c.lock()
	if c.closed {
		c.unlock()
		return
	}
	c.closed = true
	var swept []*waiter
	for cl := range c.queues {
		swept = append(swept, c.queues[cl]...)
		c.queues[cl] = nil
	}
	c.gauges()
	c.unlock()
	for _, w := range swept {
		w.res <- ErrClosed
	}
}

func (c *Controller) releaseFunc() func() {
	released := false
	return func() {
		c.lock()
		if !released {
			released = true
			c.releaseLocked()
			c.gauges()
		}
		c.unlock()
	}
}

// releaseLocked frees one slot and grants it to the next waiter —
// interactive first, FIFO within the class — skipping waiters whose
// requester has already abandoned them.
func (c *Controller) releaseLocked() {
	c.inFlight--
	c.grantLocked()
}

func (c *Controller) grantLocked() {
	for c.inFlight < c.cfg.MaxConcurrent {
		w := c.popLocked()
		if w == nil {
			return
		}
		w.granted = true
		c.inFlight++
		w.res <- nil
	}
}

func (c *Controller) popLocked() *waiter {
	for class := Interactive; class < numClasses; class++ {
		for len(c.queues[class]) > 0 {
			w := c.queues[class][0]
			c.queues[class] = c.queues[class][1:]
			if w.abandoned {
				continue
			}
			return w
		}
	}
	return nil
}

func (c *Controller) queueEmptyLocked() bool {
	for class := range c.queues {
		for _, w := range c.queues[class] {
			if !w.abandoned {
				return false
			}
		}
	}
	return true
}

func (c *Controller) removeLocked(w *waiter) {
	q := c.queues[w.class]
	for i := range q {
		if q[i] == w {
			c.queues[w.class] = append(q[:i:i], q[i+1:]...)
			return
		}
	}
}

func (c *Controller) shed(class Class, reason string) *ShedError {
	if c.m != nil {
		c.m.Shed.With(class.String(), reason).Inc()
	}
	return &ShedError{Class: class, Reason: reason, RetryAfter: c.cfg.RetryAfter}
}

func (c *Controller) doneErr(ctx context.Context, class Class) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		c.m.incDeadline(class.String())
		return ErrDeadlineExceeded
	}
	c.m.incCanceled(class.String())
	return ErrCanceled
}

// Nil-safe counter helpers: every metrics touch in the controller goes
// through one of these so an uninstrumented controller (m == nil)
// costs nothing and panics never.
func (m *Metrics) incAdmitted(class string) {
	if m != nil {
		m.Admitted.With(class).Inc()
	}
}

func (m *Metrics) incDeadline(class string) {
	if m != nil {
		m.Deadline.With(class).Inc()
	}
}

func (m *Metrics) incCanceled(class string) {
	if m != nil {
		m.Canceled.With(class).Inc()
	}
}

func (c *Controller) observeWait(class Class, seconds float64) {
	if c.m != nil {
		c.m.QueueWait.With(class.String()).Observe(seconds)
	}
}

func (c *Controller) gauges() {
	if c.m == nil {
		return
	}
	c.m.InFlight.Set(float64(c.inFlight))
	for class := Interactive; class < numClasses; class++ {
		n := 0
		for _, w := range c.queues[class] {
			if !w.abandoned {
				n++
			}
		}
		c.m.QueueDepth.With(class.String()).Set(float64(n))
	}
}
