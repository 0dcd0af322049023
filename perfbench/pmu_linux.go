package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// perfEventAttr is the first, 64-byte version of Linux's
// struct perf_event_attr; the kernel reads the fields after it as zero.
type perfEventAttr struct {
	Type, Size                                   uint32
	Config, SamplePeriod, SampleType, ReadFormat uint64
	Flags                                        uint64
	WakeupEvents, BPType                         uint32
	Config1                                      uint64
}

const (
	perfTypeHardware       = 0
	perfCountHWInstruction = 1
	perfFlagInherit        = 1 << 1
	perfFlagExcludeKernel  = 1 << 5
	perfFlagExcludeHV      = 1 << 6
	perfFlagFDCloexec      = 1 << 3 // perf_event_open's flags argument
)

// instrCounter counts the instructions the process retires in user
// mode, on every thread. It opens one inheriting counter per thread
// that exists when it starts; every thread the Go runtime creates later
// is cloned from a counted one and so inherits a counter, whose counts
// the kernel adds into its parent's when the parent is read.
type instrCounter struct {
	fds []int
}

func newInstrCounter() (*instrCounter, error) {
	attr := perfEventAttr{
		Type:   perfTypeHardware,
		Size:   uint32(unsafe.Sizeof(perfEventAttr{})),
		Config: perfCountHWInstruction,
		Flags:  perfFlagInherit | perfFlagExcludeKernel | perfFlagExcludeHV,
	}
	c := &instrCounter{}
	counted := map[int]bool{}
	// A thread created while the counters are being opened is cloned
	// from one not yet counted; list the threads again until no new one
	// shows up.
	for {
		tids, err := threads()
		if err != nil {
			c.close()
			return nil, err
		}
		added := false
		for _, tid := range tids {
			if counted[tid] {
				continue
			}
			fd, _, errno := syscall.Syscall6(syscall.SYS_PERF_EVENT_OPEN, uintptr(unsafe.Pointer(&attr)),
				uintptr(tid), ^uintptr(0), ^uintptr(0), perfFlagFDCloexec, 0)
			if errno == syscall.ESRCH {
				continue // the thread has exited
			}
			if errno != 0 {
				c.close()
				return nil, fmt.Errorf("hardware instruction counter unavailable: perf_event_open: %w", errno)
			}
			c.fds = append(c.fds, int(fd))
			counted[tid] = true
			added = true
		}
		if !added {
			return c, nil
		}
	}
}

// threads lists the process's thread ids.
func threads() ([]int, error) {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil, err
	}
	tids := make([]int, 0, len(ents))
	for _, e := range ents {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			tids = append(tids, tid)
		}
	}
	return tids, nil
}

// read returns the instructions retired so far by all counted threads.
func (c *instrCounter) read() float64 {
	var total uint64
	var buf [8]byte
	for _, fd := range c.fds {
		if n, err := syscall.Read(fd, buf[:]); err != nil || n != len(buf) {
			panic(fmt.Sprintf("reading an instruction counter: %d bytes, %v", n, err))
		}
		total += binary.NativeEndian.Uint64(buf[:])
	}
	return float64(total)
}

func (c *instrCounter) close() {
	for _, fd := range c.fds {
		syscall.Close(fd)
	}
	c.fds = nil
}
