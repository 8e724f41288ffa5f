package main

import (
	"errors"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end metrics are taken on the process CPU clock. On a shared
// virtual machine the hypervisor takes the vCPUs away for stretches of
// its own (steal), and the guest kernel charges a process only for the
// time it really ran: figures per CPU-second follow a busier host much
// less than figures per wall second do.

// processCPU reads the process CPU clock: the time all of the process's
// threads have run, user and system.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// usage is one reading of the clocks: wall, process CPU, the process's
// system time (kernel work on its behalf, such as sockets and files), and
// the host's stolen and total CPU time (0 when /proc/stat is unreadable).
type usage struct {
	wall         time.Time
	cpu, sys     time.Duration
	steal, total time.Duration
}

func readUsage() usage {
	u := usage{wall: time.Now(), cpu: processCPU()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.sys = time.Duration(ru.Stime.Nano())
	}
	u.steal, u.total = hostStat()
	return u
}

// usageDelta is the clocks' advance between two readings.
type usageDelta struct {
	wall, cpu, sys, steal, total time.Duration
}

func (u usage) sub(earlier usage) usageDelta {
	return usageDelta{
		wall:  u.wall.Sub(earlier.wall),
		cpu:   u.cpu - earlier.cpu,
		sys:   u.sys - earlier.sys,
		steal: u.steal - earlier.steal,
		total: u.total - earlier.total,
	}
}

// stealShare is the share of the host's CPU time stolen, or 0 when
// /proc/stat is unreadable.
func (d usageDelta) stealShare() float64 {
	if d.total <= 0 {
		return 0
	}
	return float64(d.steal) / float64(d.total)
}

// clkTck is the USER_HZ of /proc/stat's counters on Linux.
const clkTck = 100

// hostStat reads the steal and total time of /proc/stat's "cpu" line.
func hostStat() (steal, total time.Duration) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var sum int64
	for k := 1; k <= 8; k++ { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseInt(f[k], 10, 64)
		if err != nil {
			return 0, 0
		}
		sum += v
		if k == 8 {
			steal = time.Duration(v) * time.Second / clkTck
		}
	}
	return steal, time.Duration(sum) * time.Second / clkTck
}

var errNoCPU = errors.New("the process was given no CPU time in a slice of the window")
