package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps the open-loop generator until each publication is due. The
// Go scheduler rounds a sub-millisecond time.Sleep up to the next
// millisecond when its processors are idle, which made the generator run
// 0.5 ms late at the median; a nanosleep is exact but holds the goroutine's
// processor while it sleeps, which starved the cluster. An absolute
// timerfd read through the runtime's poller has neither cost.
type pacer struct {
	f *os.File // nil when no timerfd could be created
}

func newPacer() *pacer {
	const tfdNonblock, tfdCloexec = syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 0 /* CLOCK_REALTIME */, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return &pacer{}
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}
}

// sleepUntil blocks until the wall clock reaches t (unix ns).
func (p *pacer) sleepUntil(t int64) {
	wait := t - time.Now().UnixNano()
	if wait <= 0 {
		return
	}
	if p.f != nil {
		const tfdTimerAbstime = 1
		// struct itimerspec: it_interval {sec, nsec}, it_value {sec, nsec}.
		spec := [4]int64{0, 0, t / 1e9, t % 1e9}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.f.Fd(), tfdTimerAbstime,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		var expirations [8]byte
		if errno == 0 {
			if _, err := p.f.Read(expirations[:]); err == nil {
				return
			}
		}
	}
	time.Sleep(time.Duration(wait))
}

func (p *pacer) close() {
	if p.f != nil {
		p.f.Close()
	}
}
