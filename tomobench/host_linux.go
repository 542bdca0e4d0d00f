package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// filesystemType names the filesystem holding dir, from its statfs magic.
func filesystemType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x65735546:
		return "fuse"
	case 0x6969:
		return "nfs"
	case 0x2fc12fc1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// cpuTicks returns the machine's total and stolen CPU ticks from
// /proc/stat: time the hypervisor ran someone else on this machine's
// virtual CPUs shows up as steal.
func cpuTicks() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 {
			total += v // guest time is already counted in user and nice
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
