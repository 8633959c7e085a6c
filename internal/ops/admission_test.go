package ops

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chainckpt/internal/obs"
)

func newTestController(t *testing.T, cfg ControllerConfig) (*Controller, *Metrics, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	c := NewController(cfg, m)
	t.Cleanup(c.Close)
	return c, m, reg
}

func TestAdmitImmediate(t *testing.T) {
	c, m, _ := newTestController(t, ControllerConfig{MaxConcurrent: 2})
	rel1, err := c.Admit(context.Background(), Interactive)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	rel2, err := c.Admit(context.Background(), Batch)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if got := c.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	rel1()
	rel2()
	rel2() // double release must be a no-op
	if got := c.InFlight(); got != 0 {
		t.Fatalf("InFlight after release = %d, want 0", got)
	}
	if got := m.Admitted.With("interactive").Value(); got != 1 {
		t.Fatalf("admitted{interactive} = %d, want 1", got)
	}
	if got := m.Admitted.With("batch").Value(); got != 1 {
		t.Fatalf("admitted{batch} = %d, want 1", got)
	}
}

// Deadline already expired on arrival: never queues, never takes a
// slot, counted as a deadline outcome.
func TestAdmitDeadlineExpiredOnArrival(t *testing.T) {
	c, m, _ := newTestController(t, ControllerConfig{MaxConcurrent: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()

	rel, err := c.Admit(ctx, Interactive)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if rel != nil {
		t.Fatal("release fn returned with error")
	}
	if got := c.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}
	if got := m.Deadline.With("interactive").Value(); got != 1 {
		t.Fatalf("deadline{interactive} = %d, want 1", got)
	}
}

// Cancel while queued: the waiter leaves the queue, the queue-depth
// gauge reconciles, no slot is consumed or leaked, and a later release
// still grants to the surviving waiter behind it.
func TestAdmitCancelWhileQueued(t *testing.T) {
	c, m, _ := newTestController(t, ControllerConfig{MaxConcurrent: 1})
	relHold, err := c.Admit(context.Background(), Interactive)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}

	canceledCtx, cancel := context.WithCancel(context.Background())
	canceledDone := make(chan error, 1)
	go func() {
		_, err := c.Admit(canceledCtx, Interactive)
		canceledDone <- err
	}()
	survivorDone := make(chan error, 1)
	var survivorRel func()
	go func() {
		rel, err := c.Admit(context.Background(), Interactive)
		survivorRel = rel
		survivorDone <- err
	}()

	waitFor(t, func() bool { return c.QueueDepth(Interactive) == 2 }, "two queued waiters")
	cancel()
	if err := <-canceledDone; !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled waiter err = %v, want ErrCanceled", err)
	}
	waitFor(t, func() bool { return c.QueueDepth(Interactive) == 1 }, "canceled waiter removed")

	relHold()
	if err := <-survivorDone; err != nil {
		t.Fatalf("survivor err = %v", err)
	}
	if got := c.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1 (survivor holds it)", got)
	}
	survivorRel()
	if got := c.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}
	if got := m.Canceled.With("interactive").Value(); got != 1 {
		t.Fatalf("canceled{interactive} = %d, want 1", got)
	}
	// Counters reconcile: 2 admissions (holder + survivor), 1 cancel.
	if got := m.Admitted.With("interactive").Value(); got != 2 {
		t.Fatalf("admitted{interactive} = %d, want 2", got)
	}
}

// Queue bound: requests beyond MaxQueue shed immediately, and the shed
// does not consume a queue slot.
func TestAdmitQueueFull(t *testing.T) {
	c, m, _ := newTestController(t, ControllerConfig{MaxConcurrent: 1, MaxQueue: 1, RetryAfter: 7 * time.Second})
	rel, err := c.Admit(context.Background(), Batch)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	defer rel()
	queued := make(chan error, 1)
	go func() {
		rel, err := c.Admit(context.Background(), Batch)
		if err == nil {
			defer rel()
		}
		queued <- err
	}()
	waitFor(t, func() bool { return c.QueueDepth(Batch) == 1 }, "one queued waiter")

	_, err = c.Admit(context.Background(), Batch)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("err = %v, want ShedError", err)
	}
	if shed.Class != Batch || shed.RetryAfter != 7*time.Second {
		t.Fatalf("shed = %+v, want batch retry 7s", shed)
	}
	if got := m.Shed.With("batch").Value(); got != 1 {
		t.Fatalf("shed{batch} = %d, want 1", got)
	}
	rel()
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter err = %v", err)
	}
}

// Race-detector stress: concurrent admits of both classes, deadline
// expiries while queued, and releases. Run with -race; correctness
// assertion is that every Admit resolves and in-flight returns to zero.
func TestAdmissionRaceStress(t *testing.T) {
	c, _, _ := newTestController(t, ControllerConfig{MaxConcurrent: 4, MaxQueue: 16})
	var wg sync.WaitGroup
	var granted atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			class := Interactive
			if g%2 == 0 {
				class = Batch
			}
			for i := 0; i < 200; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*time.Millisecond)
				rel, err := c.Admit(ctx, class)
				if err == nil {
					granted.Add(1)
					rel()
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, func() bool { return c.InFlight() == 0 }, "in-flight drained")
	if granted.Load() == 0 {
		t.Fatal("no admit ever succeeded under stress")
	}
}

func TestControllerClose(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewController(ControllerConfig{MaxConcurrent: 1}, NewMetrics(reg))
	rel, err := c.Admit(context.Background(), Interactive)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	queued := make(chan error, 1)
	go func() {
		_, err := c.Admit(context.Background(), Interactive)
		queued <- err
	}()
	waitFor(t, func() bool { return c.QueueDepth(Interactive) == 1 }, "waiter queued")
	c.Close()
	if err := <-queued; !errors.Is(err, ErrClosed) {
		t.Fatalf("queued err after close = %v, want ErrClosed", err)
	}
	if _, err := c.Admit(context.Background(), Interactive); !errors.Is(err, ErrClosed) {
		t.Fatalf("Admit after close = %v, want ErrClosed", err)
	}
	rel() // releasing a pre-close slot must not panic
}

// Nil-safety: a nil controller admits everything (uninstrumented
// pass-through), matching the nil conventions of obs and engine.
func TestNilController(t *testing.T) {
	var c *Controller
	rel, err := c.Admit(context.Background(), Batch)
	if err != nil {
		t.Fatalf("nil Admit: %v", err)
	}
	rel()
	c.Close()
	if c.InFlight() != 0 || c.QueueDepth(Batch) != 0 {
		t.Fatal("nil controller reported state")
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
