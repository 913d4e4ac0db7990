package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The load generator and the daemon are pinned to disjoint CPUs: the
// generator to the last CPU, the daemon(s) to the others. On a small
// machine this keeps the generator's own work from landing in the
// daemon's latency and CPU figures, and the daemon's Go runtime sizes
// GOMAXPROCS to the CPUs it was given.

type cpuMask [16]uint64 // 1024 CPUs, the kernel's default cpu_set_t

func maskOf(cpus ...int) *cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return &m
}

func setAffinity(tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// cpuPlan splits the machine's CPUs between generator and daemons; with
// one CPU there is nothing to split and both masks are nil.
func cpuPlan() (gen, daemons *cpuMask) {
	n := runtime.NumCPU()
	if n < 2 {
		return nil, nil
	}
	rest := make([]int, n-1)
	for i := range rest {
		rest[i] = i
	}
	return maskOf(n - 1), maskOf(rest...)
}

// pinProcess moves every thread of this process onto m and sizes the Go
// scheduler to it. Threads started later inherit the mask of the thread
// that starts them, so one pass over the current ones suffices; the pass
// repeats in case a thread was being created during the first.
func pinProcess(m *cpuMask, cpus int) error {
	for pass := 0; pass < 2; pass++ {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("pin thread %d: %w", tid, err)
			}
		}
	}
	runtime.GOMAXPROCS(cpus)
	return nil
}

// startPinned runs start on an OS thread temporarily pinned to m, so the
// process it forks inherits m. The thread is re-pinned to back afterwards
// and stays alive: the child's Pdeathsig is tied to it.
func startPinned(m, back *cpuMask, start func() error) error {
	if m == nil {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, m); err != nil {
		return err
	}
	err := start()
	if err2 := setAffinity(0, back); err == nil {
		err = err2
	}
	return err
}
