//go:build !linux

package main

import "time"

// pacer sleeps the open-loop generator until each publication is due.
type pacer struct{}

func newPacer() *pacer { return &pacer{} }

// sleepUntil blocks until the wall clock reaches t (unix ns).
func (*pacer) sleepUntil(t int64) {
	if wait := t - time.Now().UnixNano(); wait > 0 {
		time.Sleep(time.Duration(wait))
	}
}

func (*pacer) close() {}
