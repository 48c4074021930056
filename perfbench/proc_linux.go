package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// The benchmark runs on Linux: it relies on the parent-death signal,
// /proc/<pid>/status and /proc/stat.

// childAttr makes the kernel kill a started server if the benchmark dies
// first, so no daemon outlives its run.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// cpuTimes reads the host's aggregate CPU time from /proc/stat: the time
// stolen by the hypervisor and the total of user, nice, system, idle,
// iowait, irq, softirq and steal, in clock ticks.
func cpuTimes() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
