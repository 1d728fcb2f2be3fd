package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTicks = 100

// procCPU returns a process's user+system CPU time so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// parseStatCPU reads utime and stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(data []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	fields := bytes.Fields(data[i+1:])
	// fields[0] is field 3 (state), so utime (14) is fields[11].
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(fields))
	}
	var ticks uint64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procPeakRSS returns a process's peak resident set size in bytes.
func procPeakRSS(pid int) (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

// parseVmHWM reads the VmHWM line ("VmHWM:   12345 kB") of a
// /proc/<pid>/status file.
func parseVmHWM(data []byte) (uint64, error) {
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}
