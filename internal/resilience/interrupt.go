package resilience

import (
	"context"
	"os"
	"os/signal"
	"sync"
)

// Interrupt implements the standard double-Ctrl-C escape hatch: the first
// signal cancels the returned context so the program drains gracefully
// (finish or checkpoint in-flight work), and a second signal force-quits
// via Exit. Every long-running command in the repo (lcrbbench, lcrbrun,
// lcrbd) installs one, so an operator is never trapped behind a drain that
// hangs.
type Interrupt struct {
	// Signals to watch. Empty means os.Interrupt only.
	Signals []os.Signal
	// OnFirst runs once when the first signal lands, before the context is
	// canceled — the place to log "draining, press again to force quit".
	OnFirst func()
	// Exit runs on the second signal. Nil means os.Exit.
	Exit func(code int)
	// Code is passed to Exit. 0 means 130 (128 + SIGINT), the exit status
	// shells report for an interrupted process.
	Code int

	// notify/stop are test hooks over signal.Notify and signal.Stop.
	notify func(chan<- os.Signal, ...os.Signal)
	stop   func(chan<- os.Signal)
}

// Notify returns a context that is canceled on the first watched signal;
// the second signal calls Exit(Code) without waiting. The returned
// CancelFunc releases the signal registration and the watcher goroutine —
// call it on the way out, exactly like signal.NotifyContext.
func (i Interrupt) Notify() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	notify, stop := i.notify, i.stop
	if notify == nil {
		notify = signal.Notify
		stop = signal.Stop
	}
	signals := i.Signals
	if len(signals) == 0 {
		signals = []os.Signal{os.Interrupt}
	}
	exit := i.Exit
	if exit == nil {
		exit = os.Exit
	}
	code := i.Code
	if code == 0 {
		code = 130
	}

	sigc := make(chan os.Signal, 2)
	notify(sigc, signals...)
	done := make(chan struct{})
	go func() {
		// Re-check done after every wake-up: when a signal and the stop
		// race, select picks between the two ready channels at random, and
		// a signal that loses the race to stop must never fire OnFirst or
		// Exit — stop means the caller has already released the watcher.
		select {
		case <-done:
			return
		case <-sigc:
			select {
			case <-done:
				return
			default:
			}
		}
		if i.OnFirst != nil {
			i.OnFirst()
		}
		cancel()
		select {
		case <-done:
			return
		case <-sigc:
			select {
			case <-done:
				return
			default:
			}
		}
		exit(code)
	}()

	var once sync.Once
	return ctx, func() {
		once.Do(func() {
			close(done)
			if stop != nil {
				stop(sigc)
			}
			cancel()
		})
	}
}
