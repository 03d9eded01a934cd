package main

import (
	"fmt"
	"syscall"
)

// peakRSSMB is the process's peak resident set size, from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// machine names the kernel and architecture from uname.
func machine() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	str := func(a [65]int8) string {
		b := make([]byte, 0, len(a))
		for _, c := range a {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		return string(b)
	}
	return fmt.Sprintf("%s %s %s", str(u.Sysname), str(u.Release), str(u.Machine))
}
