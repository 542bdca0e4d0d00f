//go:build !linux

package main

// filesystemType is only known on Linux.
func filesystemType(string) string { return "unknown" }

// cpuTicks is only known on Linux.
func cpuTicks() (total, steal float64) { return 0, 0 }
