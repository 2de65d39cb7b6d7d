package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples collects one timing series.
type samples []float64

// quantile returns the q-quantile by linear interpolation between
// closest ranks (0 for an empty series).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// tailWindow is the sample count over which one 99th percentile is
// taken: the smallest that leaves ten samples beyond it.
const tailWindow = 1000

// windowP99 splits a phase's samples, in the order they were taken,
// into windows of tailWindow (the last absorbing the remainder) and
// returns each window's 99th percentile. A run reports the median of
// these, so one stall — a collection pause in some process, a slow
// fsync — moves the tail of one window, not of the run.
func (s samples) windowP99() samples {
	var out samples
	for lo := 0; lo < len(s); lo += tailWindow {
		hi := lo + tailWindow
		if len(s)-hi < tailWindow {
			hi = len(s)
		}
		out = append(out, s[lo:hi].quantile(0.99))
		if hi == len(s) {
			break
		}
	}
	return out
}

func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuSeconds reads a process's user+system CPU time from /proc.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMiB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
