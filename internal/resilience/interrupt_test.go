package resilience

import (
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSignals installs test hooks on an Interrupt and returns the channel
// signals are delivered on plus a counter of Stop calls.
func fakeSignals(i *Interrupt) (chan<- os.Signal, *atomic.Int32) {
	delivered := make(chan os.Signal, 2)
	var stopped atomic.Int32
	i.notify = func(c chan<- os.Signal, _ ...os.Signal) {
		go func() {
			for s := range delivered {
				c <- s
			}
		}()
	}
	i.stop = func(chan<- os.Signal) { stopped.Add(1) }
	return delivered, &stopped
}

// TestInterruptFirstSignalDrains cancels the context and runs OnFirst on
// the first signal without exiting.
func TestInterruptFirstSignalDrains(t *testing.T) {
	var first, exited atomic.Int32
	i := Interrupt{
		OnFirst: func() { first.Add(1) },
		Exit:    func(int) { exited.Add(1) },
	}
	sigs, _ := fakeSignals(&i)
	ctx, stop := i.Notify()
	defer stop()

	sigs <- os.Interrupt
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not canceled by first signal")
	}
	if got := first.Load(); got != 1 {
		t.Fatalf("OnFirst ran %d times, want 1", got)
	}
	if got := exited.Load(); got != 0 {
		t.Fatalf("Exit ran after a single signal")
	}
}

// TestInterruptSecondSignalForces calls Exit with the configured code on
// the second signal.
func TestInterruptSecondSignalForces(t *testing.T) {
	exitCode := make(chan int, 1)
	i := Interrupt{
		Exit: func(code int) { exitCode <- code },
		Code: 42,
	}
	sigs, _ := fakeSignals(&i)
	ctx, stop := i.Notify()
	defer stop()

	sigs <- os.Interrupt
	<-ctx.Done()
	sigs <- os.Interrupt
	select {
	case code := <-exitCode:
		if code != 42 {
			t.Fatalf("exit code = %d, want 42", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Exit not called on second signal")
	}
}

// TestInterruptDefaultCode force-quits with 130 (128+SIGINT) when no code
// is configured.
func TestInterruptDefaultCode(t *testing.T) {
	exitCode := make(chan int, 1)
	i := Interrupt{Exit: func(code int) { exitCode <- code }}
	sigs, _ := fakeSignals(&i)
	ctx, stop := i.Notify()
	defer stop()
	sigs <- os.Interrupt
	<-ctx.Done()
	sigs <- os.Interrupt
	if code := <-exitCode; code != 130 {
		t.Fatalf("exit code = %d, want 130", code)
	}
}

// TestInterruptStopReleases unregisters the handler: signals after stop
// neither cancel a fresh parent nor exit.
func TestInterruptStopReleases(t *testing.T) {
	var exited atomic.Int32
	i := Interrupt{Exit: func(int) { exited.Add(1) }}
	sigs, stopped := fakeSignals(&i)
	ctx, stop := i.Notify()
	stop()
	if stopped.Load() != 1 {
		t.Fatalf("signal.Stop calls = %d, want 1", stopped.Load())
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not cancel the context")
	}
	// A signal delivered after stop must not exit.
	sigs <- os.Interrupt
	sigs <- os.Interrupt
	time.Sleep(10 * time.Millisecond)
	if got := exited.Load(); got != 0 {
		t.Fatalf("Exit ran %d times after stop", got)
	}
}
