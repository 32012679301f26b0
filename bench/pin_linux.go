//go:build linux

package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// reexecPinned restricts this thread to one CPU, the last one it is allowed,
// and replaces the process with itself: the new process's Go runtime sizes
// itself for one CPU, and every subprocess started from it inherits the mask.
// It returns only if that failed.
func reexecPinned() error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // room for 1 024 CPUs
	size, ptr := unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, ptr); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := range mask {
		for b := 0; b < 64; b++ {
			if mask[i]&(1<<b) != 0 {
				cpu = i*64 + b
			}
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, ptr); errno != 0 {
		return fmt.Errorf("sched_setaffinity to CPU %d: %w", cpu, errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), pinnedEnv+"="+strconv.Itoa(cpu)))
}
